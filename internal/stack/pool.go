package stack

import (
	"fmt"
	"sync"

	"fibril/internal/vm"
)

// CilkPlusDefaultLimit is Cilk Plus's default cap on worker stacks.
const CilkPlusDefaultLimit = 2400

// MapError reports that the pool could not map a fresh stack. The pool's
// counters are already repaired when a Take returns it: no slot is leaked
// under a bounded limit and MaxInUse does not count the failed checkout.
type MapError struct {
	Pages int // requested stack size
	Err   error
}

func (e *MapError) Error() string {
	return fmt.Sprintf("stack: pool cannot map a new %d-page stack: %v", e.Pages, e.Err)
}

func (e *MapError) Unwrap() error { return e.Err }

// Pool is the stack pool, Listing 3's take_stack_from_pool /
// put_stack_into_pool: one free list under one lock. In Fibril mode the pool
// is unbounded: a thief that needs a stack always gets one, preserving the
// time bound. With a positive limit it models Intel Cilk Plus, which caps the
// number of stacks (2400 by default) and makes thieves refrain from stealing —
// block here — until a stack is returned, sacrificing the time bound for a
// space bound (§3).
//
// Every counter changes under the lock, so they are exact: a stack is created
// only when none is free, which makes MaxInUse == Created whenever no map has
// failed.
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
	stalls   int64 // Takes that had to wait for a stack
}

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

// NewShardedPool is NewPool under the name the repository benchmark's stack
// lanes call; the shard count is ignored.
func NewShardedPool(as *vm.AddressSpace, pages, limit, _ int) *Pool { return NewPool(as, pages, limit) }

// Take returns a stack, creating one if the free list is empty. With a
// bounded pool it blocks — the thief "refrains from stealing" — until a
// stack is available, and counts one stall however often it is woken. Take
// returns (nil, nil) once the pool has been closed, so that blocked thieves
// can unwind at shutdown, and (nil, *MapError) if a fresh stack could not be
// mapped. The int argument, the caller's worker slot, is ignored.
func (p *Pool) Take(int) (*Stack, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for waited := false; ; waited = true {
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
			return p.createLocked()
		}
		if !waited {
			p.stalls++
		}
		p.cond.Wait()
	}
}

// createLocked maps a fresh stack with the pool lock held, dropping it
// around the map call. The counters are bumped first, so a concurrent Take
// under a bounded limit cannot over-create, and repaired if the map fails:
// the created slot and the phantom checkout are released — from MaxInUse
// too, if the checkout raised it (by one per concurrently failing create) —
// and one waiter is woken to retry the slot. Ids are never reissued.
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
// all popped); its watermark is reset. The int argument is ignored, as in
// Take.
func (p *Pool) Put(_ int, s *Stack) {
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
// oldest pooled first, until stop() reports enough has been freed, and
// reports the madvise calls issued and pages freed — the RSS-ceiling
// fallback. Only stacks with possibly-resident pages cost a madvise call.
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

// Stalls returns how many Takes had to wait on a bounded pool.
func (p *Pool) Stalls() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stalls
}
