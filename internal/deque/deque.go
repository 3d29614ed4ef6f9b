// Package deque implements the work-stealing double-ended queue used by the
// Fibril scheduler (SPAA 2016, §2 and §4.3).
//
// Deque is the THE protocol of Cilk-5 (Frigo, Leiserson, Randall, PLDI '98),
// which the paper adopts unchanged: the owning worker pushes and pops at the
// bottom without locking on the fast path; thieves steal from the top while
// holding a per-deque lock (Dijkstra-style mutual exclusion between one
// owner and the lock-holding thief). Locked is a mutex-based reference
// implementation with identical semantics, used for differential testing
// and as a fallback.
package deque

import (
	"sync"
	"sync/atomic"

	"fibril/internal/cacheline"
)

// initialCapacity is the starting ring size; the deque grows geometrically.
const initialCapacity = 64

// Deque is a THE-protocol work-stealing deque. The zero value is ready to
// use. Push and Pop may be called only by the owning worker; Steal may be
// called by any worker.
//
// The fields are laid out by writer (DESIGN.md §15): the owner stores tail
// on every Push and Pop, thieves store head and the lock word. A runtime
// allocates one Deque per worker slot, back to back, and the fields alone
// are 48 bytes: without the outer pads two slots' deques are neighbours in
// one size class and each owner's tail stores invalidate the other's whole
// deque.
type Deque[T any] struct {
	_ cacheline.Pad

	// Owner-written; thieves only read.
	tail atomic.Int64 // next index to push (bottom)
	buf  []T          // ring buffer, len is a power of two; owner swaps under lock

	_ cacheline.Pad

	// Thief-written; the owner reads head, and takes the lock only to
	// grow or to settle a race for the last entry.
	head atomic.Int64 // next index to steal (top); only increases
	lock sync.Mutex   // serializes thieves, and conflict resolution

	_ cacheline.Pad
}

// Push adds t at the bottom of the deque. Owner-only; never blocks on
// thieves except while growing the ring.
func (d *Deque[T]) Push(t T) {
	tail := d.tail.Load()
	head := d.head.Load()
	// One slot of slack is reserved: a lock-holding thief advances head
	// past an entry before it finishes reading it (claim first, inspect
	// second), so the head observed here may be one past an entry still
	// in use. Growing at len-1 keeps the ring from wrapping onto it.
	if d.buf == nil || int(tail-head) >= len(d.buf)-1 {
		d.grow(head, tail)
	}
	d.buf[tail&int64(len(d.buf)-1)] = t
	d.tail.Store(tail + 1)
}

// grow replaces the ring with a larger one. It holds the lock so no thief
// reads the buffer mid-swap; the owner is the only other reader.
func (d *Deque[T]) grow(head, tail int64) {
	d.lock.Lock()
	defer d.lock.Unlock()
	head = d.head.Load() // may have advanced before we got the lock
	n := initialCapacity
	for int64(n) < (tail-head)*2 {
		n *= 2
	}
	nbuf := make([]T, n)
	for i := head; i < tail; i++ {
		nbuf[i&int64(n-1)] = d.buf[i&int64(len(d.buf)-1)]
	}
	d.buf = nbuf
}

// Pop removes and returns the bottom entry. Owner-only. The fast path is
// lock-free; the lock is taken only when the deque might be down to its
// last entry and a thief may be racing for it (the THE protocol).
func (d *Deque[T]) Pop() (T, bool) {
	var zero T
	tail := d.tail.Load() - 1
	d.tail.Store(tail)
	head := d.head.Load()
	if head > tail {
		// Possible conflict with a thief: restore and retry under the lock.
		d.tail.Store(tail + 1)
		d.lock.Lock()
		head = d.head.Load()
		if head > tail {
			d.lock.Unlock()
			return zero, false // deque empty; thief won
		}
		d.tail.Store(tail)
		d.lock.Unlock()
	}
	v := d.buf[tail&int64(len(d.buf)-1)]
	d.buf[tail&int64(len(d.buf)-1)] = zero // release for GC
	return v, true
}

// Steal removes and returns the top entry. Any worker may call it; thieves
// serialize on the deque lock, as in Cilk.
func (d *Deque[T]) Steal() (T, bool) {
	var zero T
	d.lock.Lock()
	head := d.head.Load()
	d.head.Store(head + 1)
	tail := d.tail.Load()
	if head+1 > tail {
		d.head.Store(head) // lost to the owner's pop
		d.lock.Unlock()
		return zero, false
	}
	// The stolen slot is not cleared: once head has advanced the owner may
	// reuse it on the next ring lap, so a thief-side write would race the
	// owner's Push. The stale value is released when the slot is
	// overwritten or the ring is replaced by grow.
	v := d.buf[head&int64(len(d.buf)-1)]
	d.lock.Unlock()
	return v, true
}

// StealIf steals the top entry only if pred accepts it, leaving the deque
// untouched otherwise. Restricted stealing disciplines — TBB's
// depth-restricted stealing and leapfrogging (§3) — are expressed this way:
// the thief inspects the candidate under the deque lock and declines
// ineligible work.
func (d *Deque[T]) StealIf(pred func(T) bool) (T, bool) {
	var zero T
	d.lock.Lock()
	// Claim first, inspect second: after the claim succeeds, the Dekker
	// argument of the THE protocol guarantees the owner cannot pop this
	// entry (a conflicting Pop is forced into the locked path, which we
	// hold), so reading it and — on pred rejection — unclaiming is safe.
	head := d.head.Load()
	d.head.Store(head + 1)
	tail := d.tail.Load()
	if head+1 > tail {
		d.head.Store(head)
		d.lock.Unlock()
		return zero, false
	}
	v := d.buf[head&int64(len(d.buf)-1)]
	if !pred(v) {
		d.head.Store(head)
		d.lock.Unlock()
		return zero, false
	}
	// Not cleared for the same reason as Steal: the owner may already be
	// reusing this slot on the next ring lap.
	d.lock.Unlock()
	return v, true
}

// Len reports the current number of entries. It is a racy snapshot intended
// for stats and victim selection heuristics only.
func (d *Deque[T]) Len() int {
	n := int(d.tail.Load() - d.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Empty reports whether the deque appears empty (racy snapshot).
func (d *Deque[T]) Empty() bool { return d.Len() == 0 }

// LazyHint reports whether the owner should publish more parallelism: true
// when the deque looks empty, meaning any thief probing this worker leaves
// hungry. It is the owner-side probe behind lazy loop splitting — two
// relaxed loads, no lock — and, like Len, is only a racy snapshot: a thief
// may empty the deque the instant after it returns false.
func (d *Deque[T]) LazyHint() bool { return d.tail.Load()-d.head.Load() <= 0 }

// Locked is a straightforward mutex-protected deque with the same owner /
// thief API, used as the semantic reference for differential tests.
type Locked[T any] struct {
	mu    sync.Mutex
	items []T
}

// Push adds t at the bottom.
func (d *Locked[T]) Push(t T) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// Pop removes from the bottom (LIFO end).
func (d *Locked[T]) Pop() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return v, true
}

// Steal removes from the top (FIFO end).
func (d *Locked[T]) Steal() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	d.items = d.items[1:]
	return v, true
}

// Len reports the number of entries.
func (d *Locked[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// Empty reports whether the deque is empty.
func (d *Locked[T]) Empty() bool { return d.Len() == 0 }

// LazyHint reports whether the deque looks empty (see Deque.LazyHint).
func (d *Locked[T]) LazyHint() bool { return d.Len() == 0 }
