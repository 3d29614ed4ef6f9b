package deque

import (
	"sync/atomic"

	"fibril/internal/cacheline"
)

// ChaseLev is a lock-free Chase–Lev work-stealing deque ("Dynamic Circular
// Work-Stealing Deque", SPAA 2005), the classic alternative to the Cilk THE
// protocol this runtime defaults to. Thieves never take a lock: a steal is
// one CAS on top. The owner synchronizes with thieves only when the deque
// may be down to its last element, using the same CAS.
//
// Entries are boxed: Push allocates one node per element and the node is
// immutable from publication until the owner reclaims it. That is what
// makes the implementation safe (and race-detector-clean) without hazard
// pointers or per-slot atomics over arbitrary T: a thief holding a stale
// ring or a stale slot pointer only ever reads immutable memory, and the
// CAS on top decides ownership. With recycling disabled the cost is one
// small allocation per Push; EnableRecycling removes it from the
// steady-state fork/join path at the price of forbidding StealIf (see
// below), which is why the runtime enables it only for strategies that
// steal unconditionally.
//
// Ring slots consumed by thieves are not cleared (a thief must never write
// a slot the owner may be concurrently reusing), so up to one ring's worth
// of consumed nodes can stay reachable until the slot is overwritten or the
// ring is dropped. The owner's Pop does clear, as it is the slot's only
// writer.
//
// Push and Pop are owner-only; Steal and StealIf may be called from any
// goroutine.
//
// Laid out by writer like Deque (DESIGN.md §15): bottom, the ring pointer
// and the recycling list are the owner's; top is CASed by thieves (and by
// the owner only when racing one for the last entry).
type ChaseLev[T any] struct {
	_ cacheline.Pad

	// Owner-written; thieves only read bottom and buf.
	bottom atomic.Int64 // next index to push
	buf    atomic.Pointer[clRing[T]]
	// Owner-side node recycling (EnableRecycling). free holds nodes whose
	// entries the owner popped; Push reuses them instead of allocating.
	// Plain owner-only memory.
	recycle bool
	free    []*T

	_ cacheline.Pad

	// Thief-written.
	top atomic.Int64 // next index to steal; only increases

	_ cacheline.Pad
}

// clFreeCap bounds the owner's recycled-node hoard.
const clFreeCap = 64

// EnableRecycling turns on owner-side node reuse: nodes whose entries the
// owner pops are kept on a free list and rewritten by later Pushes, making
// the steady-state fork/join path allocation-free. Must be called before
// first use, and the deque must then never be offered to StealIf.
//
// Safety: recycling is compatible with Steal/StealBatch but NOT StealIf.
// A thief's Steal dereferences its node only after winning the CAS on top,
// and a winning CAS pins the node: the owner can no longer pop (and hence
// recycle) that index, and the SC ordering of (top, bottom, ring, slot)
// loads rules out reading a ring older than the one the index was pushed
// into. StealIf, by contrast, inspects the candidate *before* its CAS; a
// concurrent owner pop of that index may recycle the node mid-inspection
// and a later Push would rewrite it under the predicate — a torn read. The
// runtime therefore enables recycling only for strategies whose thieves
// never use StealIf (i.e. not TBB depth-restriction or leapfrogging).
func (d *ChaseLev[T]) EnableRecycling() { d.recycle = true }

// clRing is a power-of-two circular buffer of boxed entries. Old rings stay
// valid after growth — the GC reclaims them once the last stale thief drops
// its reference — so growth needs no synchronization beyond the atomic buf
// swap.
type clRing[T any] struct {
	mask int64
	elts []atomic.Pointer[T]
}

func newCLRing[T any](capacity int64) *clRing[T] {
	return &clRing[T]{mask: capacity - 1, elts: make([]atomic.Pointer[T], capacity)}
}

func (r *clRing[T]) slot(i int64) *atomic.Pointer[T] { return &r.elts[i&r.mask] }
func (r *clRing[T]) size() int64                     { return r.mask + 1 }

// Push adds v at the bottom (owner only).
func (d *ChaseLev[T]) Push(v T) {
	b := d.bottom.Load()
	t := d.top.Load()
	ring := d.buf.Load()
	if ring == nil || b-t >= ring.size() {
		ring = d.growRing(t, b)
	}
	var p *T
	if n := len(d.free); n > 0 {
		p = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		p = new(T)
	}
	*p = v
	ring.slot(b).Store(p)
	d.bottom.Store(b + 1)
}

// reclaim retires a node the owner just popped. Only reachable when the
// owner holds exclusive ownership of the entry (a non-last pop, or a won
// last-element CAS), which is what makes rewriting the node in a later
// Push safe against every thief dereference path except StealIf — see
// EnableRecycling.
func (d *ChaseLev[T]) reclaim(p *T) {
	if d.recycle && len(d.free) < clFreeCap {
		d.free = append(d.free, p)
	}
}

// growRing replaces the ring with one twice as large. Only the owner grows,
// so no mutual exclusion is needed; concurrent thieves keep reading the old
// ring, whose entries remain valid (stale claims are rejected by their CAS
// on top).
func (d *ChaseLev[T]) growRing(t, b int64) *clRing[T] {
	old := d.buf.Load()
	var capacity int64 = initialCapacity
	if old != nil {
		capacity = old.size() * 2
	}
	next := newCLRing[T](capacity)
	if old != nil {
		for i := t; i < b; i++ {
			next.slot(i).Store(old.slot(i).Load())
		}
	}
	d.buf.Store(next)
	return next
}

// Pop removes from the bottom (owner only).
func (d *ChaseLev[T]) Pop() (T, bool) {
	var zero T
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore and fail.
		d.bottom.Store(b + 1)
		return zero, false
	}
	ring := d.buf.Load()
	slot := ring.slot(b)
	p := slot.Load()
	if t == b {
		// Last element: race a thief for it with the same CAS they use.
		if !d.top.CompareAndSwap(t, t+1) {
			// Thief won; it will read the slot itself.
			d.bottom.Store(b + 1)
			return zero, false
		}
		d.bottom.Store(b + 1)
		slot.Store(nil) // release; owner is the slot's only writer
		v := *p
		d.reclaim(p)
		return v, true
	}
	slot.Store(nil)
	v := *p
	d.reclaim(p)
	return v, true
}

// Steal removes from the top (any goroutine). Lock-free: one CAS decides.
func (d *ChaseLev[T]) Steal() (T, bool) {
	var zero T
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return zero, false
	}
	ring := d.buf.Load()
	p := ring.slot(t).Load()
	if p == nil {
		// The owner consumed index t (and cleared the slot) after our
		// bottom load; the CAS below would fail anyway.
		return zero, false
	}
	if !d.top.CompareAndSwap(t, t+1) {
		return zero, false // lost to the owner's last-element pop or another thief
	}
	// p may be stale only if the owner reused the slot for index t+size,
	// which requires it to have observed top > t — impossible before our
	// successful CAS. So a winning CAS guarantees p is index t's entry,
	// and entries are immutable after publication.
	return *p, true
}

// StealIf steals the top entry only if pred accepts it, leaving the deque
// untouched otherwise — the restricted-stealing hook (TBB depth restriction,
// leapfrogging) shared with the THE Deque. Unlike THE's claim-then-inspect,
// the lock-free version inspects first: entries are immutable once
// published, so reading the candidate before the CAS is safe, and a stale
// read is caught by the CAS failing. A rejection by pred on a lost race is
// indistinguishable from the entry being taken by someone else, which is
// the same observable behaviour as the THE implementation.
func (d *ChaseLev[T]) StealIf(pred func(T) bool) (T, bool) {
	if d.recycle {
		panic("deque: StealIf on a recycling ChaseLev (see EnableRecycling)")
	}
	var zero T
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return zero, false
	}
	ring := d.buf.Load()
	p := ring.slot(t).Load()
	if p == nil {
		return zero, false
	}
	if !pred(*p) {
		return zero, false
	}
	if !d.top.CompareAndSwap(t, t+1) {
		return zero, false
	}
	return *p, true
}

// StealBatch steals up to len(dst) entries from the top into dst and
// reports how many were taken. Lock-free: a loop of single-entry CASes
// (Chase-Lev's top CAS admits no multi-entry variant), stopping at the
// first lost race, so a batch is cheap when uncontended and degrades to
// one entry under contention. Any worker may call it.
func (d *ChaseLev[T]) StealBatch(dst []T) int {
	m := 0
	for m < len(dst) {
		v, ok := d.Steal()
		if !ok {
			break
		}
		dst[m] = v
		m++
	}
	return m
}

// Len reports a racy size snapshot.
func (d *ChaseLev[T]) Len() int {
	n := int(d.bottom.Load() - d.top.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Empty reports whether the deque appears empty.
func (d *ChaseLev[T]) Empty() bool { return d.Len() == 0 }

// LazyHint reports whether the owner should publish more parallelism: true
// when the deque looks empty (see Deque.LazyHint). Two atomic loads, no CAS.
func (d *ChaseLev[T]) LazyHint() bool { return d.bottom.Load()-d.top.Load() <= 0 }
