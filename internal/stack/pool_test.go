package stack

import (
	"sync"
	"sync/atomic"

	"fibril/internal/vm"
)

// Pooler is the stack-pool contract (Listing 3's take_stack_from_pool /
// put_stack_into_pool) as this package's tests see it. Two implementations
// exist: the ShardedPool (per-worker lock-free caches), which is the one the
// runtime schedules against, and the single-lock Pool below — the paper's
// Listing 3 verbatim, a test-only reference the differential tests hold the
// sharded pool to, and the one that can promise the strict counter
// equalities only a serialized pool can. The interface is what lets one test
// body drive both.
//
// The shard argument of Take/Put is the caller's worker-slot id,
// 0 ≤ shard < the pool's shard count — a locality hint, not a partition:
// stacks may migrate freely between shards.
type Pooler interface {
	// Take returns a stack, creating one if none is free. With a bounded
	// pool it blocks until a stack is available. It returns (nil, nil)
	// once the pool has been closed, so blocked thieves can unwind at
	// shutdown, and (nil, *MapError) if a fresh stack could not be mapped.
	Take(shard int) (*Stack, error)
	// Put returns a quiescent stack (frames all popped) to the pool.
	Put(shard int, s *Stack)
	// Close wakes every blocked Take with a nil result; Reopen re-enables
	// the pool for the next run.
	Close()
	Reopen()
	// Created returns how many stacks the pool has ever mapped; MaxInUse
	// the most simultaneously checked out; InUse the current checkout
	// count; Stalls how many times Take had to wait on a bounded pool.
	Created() int
	MaxInUse() int
	InUse() int
	Stalls() int64
	// ForEachFree visits every free stack. Intended for post-run
	// inspection at quiescence, when every stack the runtime used is free.
	ForEachFree(fn func(*Stack))
	// ReclaimFree madvises the resident residue off free stacks until
	// stop() reports the pressure has passed, returning the madvise calls
	// issued and pages freed — the RSS-ceiling fallback.
	ReclaimFree(stop func() bool) (calls, pages int64)
	// Drain releases every pooled stack's mapping. Only for teardown.
	Drain()
}

// Pool is the single-lock stack pool (Listing 3's take_stack_from_pool /
// put_stack_into_pool). In Fibril mode the pool is unbounded: a thief that
// needs a stack always gets one, preserving the time bound. With a positive
// limit it models Intel Cilk Plus, which caps the number of stacks (2400 by
// default) and makes thieves refrain from stealing — block here — until a
// stack is returned, sacrificing the time bound for a space bound (§3).
type Pool struct {
	as    *vm.AddressSpace
	pages int
	limit int // 0 = unbounded

	// newStack maps a fresh stack; tests swap it to inject map failures.
	newStack func(as *vm.AddressSpace, pages, id int) (*Stack, error)

	mu      sync.Mutex
	cond    *sync.Cond
	free    []*Stack
	created int
	ids     int // monotone id source: never decremented, unlike created
	closed  bool

	inUse    int
	maxInUse int

	stalls atomic.Int64 // times a thief had to wait for a stack
}

var (
	_ Pooler = (*Pool)(nil)
	_ Pooler = (*ShardedPool)(nil)
)

// NewPool creates a pool of stacks of the given page size. limit == 0 means
// unbounded (Fibril); limit > 0 bounds the total number of stacks ever
// created (Cilk Plus).
func NewPool(as *vm.AddressSpace, pages, limit int) *Pool {
	if pages <= 0 {
		pages = DefaultStackPages
	}
	p := &Pool{as: as, pages: pages, limit: limit, newStack: New}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Take returns a stack, creating one if the free list is empty. With a
// bounded pool it blocks — the thief "refrains from stealing" — until a
// stack is available. Take returns (nil, nil) once the pool has been
// closed, so that blocked thieves can unwind at shutdown.
func (p *Pool) Take(shard int) (*Stack, error) {
	_ = shard // single-lock pool: no locality to exploit
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, nil
		}
		if n := len(p.free); n > 0 {
			s := p.free[n-1]
			p.free = p.free[:n-1]
			p.takeLocked()
			return s, nil
		}
		if p.limit == 0 || p.created < p.limit {
			s, err := p.createLocked()
			if err != nil {
				return nil, err
			}
			return s, nil
		}
		p.stalls.Add(1)
		p.cond.Wait()
	}
}

// createLocked maps a fresh stack with the pool lock held, dropping it
// around the map call. The counters are bumped optimistically (so a
// concurrent Take under a bounded limit cannot over-create) and repaired
// if the map fails: the created slot is released, the phantom checkout is
// removed from inUse and from any MaxInUse high-water it inflated, and one
// waiter is woken to retry the now-available slot. The id source is
// monotone so a repaired slot never reissues an id.
func (p *Pool) createLocked() (*Stack, error) {
	p.created++
	p.ids++
	id := p.ids
	maxBefore := p.maxInUse
	p.takeLocked()
	p.mu.Unlock()
	s, err := p.newStack(p.as, p.pages, id)
	p.mu.Lock()
	if err != nil {
		p.created--
		p.inUse--
		// Our phantom checkout was counted in inUse for the whole map
		// window, so any high-water recorded in it overstates the real
		// concurrent holding by exactly one (per concurrently failing
		// create); peel our contribution off, never below the prior mark.
		if p.maxInUse > maxBefore {
			p.maxInUse--
		}
		p.cond.Signal()
		return nil, &MapError{Pages: p.pages, Err: err}
	}
	return s, nil
}

func (p *Pool) takeLocked() {
	p.inUse++
	if p.inUse > p.maxInUse {
		p.maxInUse = p.inUse
	}
}

// Put returns a stack to the pool. The stack must be quiescent (its frames
// all popped); its watermark is reset.
func (p *Pool) Put(shard int, s *Stack) {
	_ = shard
	s.SetWatermark(0)
	p.mu.Lock()
	p.free = append(p.free, s)
	p.inUse--
	p.mu.Unlock()
	p.cond.Signal()
}

// ForEachFree visits every stack currently in the pool's free list, under
// the pool lock. Intended for post-run inspection (conformance oracles):
// once a runtime is quiescent, every stack it ever used is free, so this
// enumerates the run's full stack population.
func (p *Pool) ForEachFree(fn func(*Stack)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.free {
		fn(s)
	}
}

// ReclaimFree returns the resident residue of free stacks to the OS,
// oldest pooled first, until stop() reports enough has been freed. Only
// stacks with possibly-resident pages cost a madvise call.
func (p *Pool) ReclaimFree(stop func() bool) (calls, pages int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.free {
		if stop != nil && stop() {
			break
		}
		if freed, called := s.ReclaimResidue(); called {
			calls++
			pages += int64(freed)
		}
	}
	return calls, pages
}

// Close wakes every blocked Take with a nil result. Reopen re-enables the
// pool for the next run.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Reopen re-enables a closed pool. It broadcasts so that any Take which
// raced past the closed check before Close's broadcast — and is now
// waiting although the free list may be non-empty — re-sweeps.
func (p *Pool) Reopen() {
	p.mu.Lock()
	p.closed = false
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Created returns how many stacks the pool has ever mapped — the paper's
// "# of stacks" column in Table 4.
func (p *Pool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// MaxInUse returns the most stacks simultaneously checked out.
func (p *Pool) MaxInUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxInUse
}

// InUse returns the stacks currently checked out.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

// Stalls returns how many times Take had to wait on a bounded pool.
func (p *Pool) Stalls() int64 { return p.stalls.Load() }

// Drain releases every pooled stack's mapping. Only for teardown; stacks
// still checked out are the caller's responsibility.
func (p *Pool) Drain() {
	p.mu.Lock()
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, s := range free {
		s.Release()
	}
}
