package stack

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"fibril/internal/cacheline"
	"fibril/internal/vm"
)

// shardCache is one worker slot's private free cache: two lock-free slots
// (Take swaps out, Put CASes in). Two slots absorb the common
// suspend/resume churn — a thief retiring its stack while the slot's next
// thief takes one — without spilling to the global list. Rounded up to a
// whole cacheline unit (128 bytes: two x86-64 cache lines, covering the
// adjacent-line prefetcher) so neighbouring shards never false-share.
type shardCache struct {
	shardSlots
	_ [cacheline.Size - unsafe.Sizeof(shardSlots{})%cacheline.Size]byte
}

type shardSlots struct {
	slots [2]atomic.Pointer[Stack]
}

// ShardedPool is the lock-free-fast-path stack pool: Take and Put hit the
// caller's shardCache with a single atomic swap/CAS; the global mutex is
// taken only on a cache miss (sweep the other shards, pop the overflow
// list, or map a fresh stack) and on a cache spill. Counter discipline
// makes the aggregate counters exact where possible and conservative
// where not:
//
//   - created is mutated only under the global lock, pre-incremented
//     before the map call (so a bounded limit cannot over-create) and
//     repaired on failure, exactly like the reference Pool (pool_test.go);
//   - inUse is incremented only AFTER a stack is acquired and decremented
//     BEFORE one is released, so inUse never exceeds the stacks actually
//     held and maxInUse ≤ created always holds;
//   - maxInUse is a sampled high-water of that counter. Unlike the
//     single-lock pool it may UNDER-report the true peak by the width of
//     a Take/Put race (a taker can sweep every cache empty while a
//     concurrent Put is in flight and create a fresh stack the strict
//     accounting would not need), so the conformance oracle for this pool
//     is maxInUse ≤ created, not equality.
//
// Blocking discipline (bounded pools): a slow-path taker registers in
// waiters before it concludes emptiness; Put checks waiters after caching
// locally and, if anyone registered, pulls the stack back out of the cache
// and publishes it on the global list with a signal. Under sequentially
// consistent atomics one of the two must see the other, so no stack can
// sit in a cache while a taker sleeps forever.
type ShardedPool struct {
	as    *vm.AddressSpace
	pages int
	limit int // 0 = unbounded

	newStack func(as *vm.AddressSpace, pages, id int) (*Stack, error)

	caches []shardCache // one per worker slot

	closed  atomic.Bool
	waiters atomic.Int32

	inUse    atomic.Int64
	maxInUse atomic.Int64
	stalls   atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	overflow []*Stack
	created  int
	ids      int
}

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

// NewShardedPool creates a sharded pool with one cache per worker slot
// (ids 0..shards-1). limit == 0 means unbounded.
func NewShardedPool(as *vm.AddressSpace, pages, limit, shards int) *ShardedPool {
	if pages <= 0 {
		pages = DefaultStackPages
	}
	if shards < 1 {
		shards = 1
	}
	p := &ShardedPool{
		as:       as,
		pages:    pages,
		limit:    limit,
		newStack: New,
		caches:   make([]shardCache, shards),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// checkout records a successful stack acquisition. Called only after the
// stack is in hand, so inUse ≤ stacks actually held ≤ created.
func (p *ShardedPool) checkout() {
	v := p.inUse.Add(1)
	for {
		cur := p.maxInUse.Load()
		if v <= cur || p.maxInUse.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Take returns a stack: the local cache with one atomic swap when it can,
// the global slow path when it must. Returns (nil, nil) when closed.
func (p *ShardedPool) Take(shard int) (*Stack, error) {
	if !p.closed.Load() {
		c := &p.caches[shard]
		for i := range c.slots {
			if s := c.slots[i].Swap(nil); s != nil {
				p.checkout()
				return s, nil
			}
		}
	}
	return p.takeSlow()
}

// takeSlow is the global path: pop the overflow list, sweep the other
// shards' caches, map a fresh stack, or — bounded pool — wait. The caller
// stays registered in waiters for the whole slow path so every concurrent
// Put routes its stack to the global list (see ShardedPool doc).
func (p *ShardedPool) takeSlow() (*Stack, error) {
	p.waiters.Add(1)
	p.mu.Lock()
	for {
		if p.closed.Load() {
			p.mu.Unlock()
			p.waiters.Add(-1)
			return nil, nil
		}
		if s := p.popOverflowLocked(); s != nil {
			p.mu.Unlock()
			p.waiters.Add(-1)
			p.checkout()
			return s, nil
		}
		if s := p.sweepLocked(); s != nil {
			p.mu.Unlock()
			p.waiters.Add(-1)
			p.checkout()
			return s, nil
		}
		if p.limit == 0 || p.created < p.limit {
			s, err := p.createLocked()
			p.mu.Unlock()
			p.waiters.Add(-1)
			if err != nil {
				return nil, err
			}
			p.checkout()
			return s, nil
		}
		p.stalls.Add(1)
		p.cond.Wait()
	}
}

func (p *ShardedPool) popOverflowLocked() *Stack {
	n := len(p.overflow)
	if n == 0 {
		return nil
	}
	s := p.overflow[n-1]
	p.overflow[n-1] = nil
	p.overflow = p.overflow[:n-1]
	return s
}

// sweepLocked steals a cached stack from any shard. Called with the global
// lock held, but the slots themselves are swapped atomically because
// owners CAS into them without the lock.
func (p *ShardedPool) sweepLocked() *Stack {
	for i := range p.caches {
		c := &p.caches[i]
		for j := range c.slots {
			if s := c.slots[j].Swap(nil); s != nil {
				return s
			}
		}
	}
	return nil
}

// createLocked maps a fresh stack, dropping the global lock around the map
// call; the lock is re-held on return. Counter repair mirrors Pool: the
// pre-incremented created slot is released on failure and one waiter woken
// to retry it. inUse/maxInUse need no repair — checkout happens only after
// a successful map.
func (p *ShardedPool) createLocked() (*Stack, error) {
	p.created++
	p.ids++
	id := p.ids
	p.mu.Unlock()
	s, err := p.newStack(p.as, p.pages, id)
	p.mu.Lock()
	if err != nil {
		p.created--
		p.cond.Signal()
		return nil, &MapError{Pages: p.pages, Err: err}
	}
	return s, nil
}

// Put returns a quiescent stack: one CAS into the local cache when nobody
// is waiting, the global list (plus a signal) when someone is. The
// post-CAS waiters re-check closes the register/sweep race — if a waiter
// registered after our pre-check, pull the stack back out and publish it
// globally so the waiter cannot sleep through it.
func (p *ShardedPool) Put(shard int, s *Stack) {
	s.SetWatermark(0)
	p.inUse.Add(-1) // before release: inUse never exceeds stacks held
	if p.waiters.Load() == 0 {
		c := &p.caches[shard]
		for i := range c.slots {
			if c.slots[i].CompareAndSwap(nil, s) {
				if p.waiters.Load() > 0 {
					// A waiter registered between the pre-check and the
					// CAS and may already have swept this cache. Rescue:
					// whatever still sits in the slot (our stack, or a
					// later Put's — any stack serves) goes global.
					if got := c.slots[i].Swap(nil); got != nil {
						p.putGlobal(got)
					}
				}
				return
			}
		}
	}
	p.putGlobal(s)
}

func (p *ShardedPool) putGlobal(s *Stack) {
	p.mu.Lock()
	p.overflow = append(p.overflow, s)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close wakes every blocked Take with a nil result.
func (p *ShardedPool) Close() {
	p.mu.Lock()
	p.closed.Store(true)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Reopen re-enables a closed pool for the next run.
func (p *ShardedPool) Reopen() {
	p.mu.Lock()
	p.closed.Store(false)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Created returns how many stacks the pool has ever mapped.
func (p *ShardedPool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// MaxInUse returns the sampled high-water of simultaneous checkouts (see
// the type comment for why it is a lower bound under races).
func (p *ShardedPool) MaxInUse() int { return int(p.maxInUse.Load()) }

// InUse returns the stacks currently checked out.
func (p *ShardedPool) InUse() int { return int(p.inUse.Load()) }

// Stalls returns how many times Take had to wait on a bounded pool.
func (p *ShardedPool) Stalls() int64 { return p.stalls.Load() }

// ForEachFree visits every free stack: the overflow list and every shard
// cache. Cache slots are read without swapping them out, so this is only
// exact at quiescence — which is when the conformance oracles call it.
func (p *ShardedPool) ForEachFree(fn func(*Stack)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.overflow {
		fn(s)
	}
	for i := range p.caches {
		c := &p.caches[i]
		for j := range c.slots {
			if s := c.slots[j].Load(); s != nil {
				fn(s)
			}
		}
	}
}

// ReclaimFree returns the resident residue of free stacks to the OS until
// stop() reports enough has been freed. Cached stacks are swapped out of
// their slots before the madvise (a concurrent Take must never receive a
// stack mid-reclaim) and retired to the overflow list.
func (p *ShardedPool) ReclaimFree(stop func() bool) (calls, pages int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.overflow {
		if stop != nil && stop() {
			return calls, pages
		}
		if freed, called := s.ReclaimResidue(); called {
			calls++
			pages += int64(freed)
		}
	}
	for i := range p.caches {
		c := &p.caches[i]
		for j := range c.slots {
			if stop != nil && stop() {
				return calls, pages
			}
			s := c.slots[j].Swap(nil)
			if s == nil {
				continue
			}
			if freed, called := s.ReclaimResidue(); called {
				calls++
				pages += int64(freed)
			}
			p.overflow = append(p.overflow, s)
		}
	}
	return calls, pages
}

// Drain releases every pooled stack's mapping. Only for teardown.
func (p *ShardedPool) Drain() {
	p.mu.Lock()
	free := p.overflow
	p.overflow = nil
	for i := range p.caches {
		c := &p.caches[i]
		for j := range c.slots {
			if s := c.slots[j].Swap(nil); s != nil {
				free = append(free, s)
			}
		}
	}
	p.mu.Unlock()
	for _, s := range free {
		s.Release()
	}
}
