// Package deque implements the work-stealing double-ended queue used by the
// Fibril scheduler (SPAA 2016, §2 and §4.3).
//
// Deque is the THE protocol of Cilk-5 (Frigo, Leiserson, Randall, PLDI '98),
// which the paper adopts unchanged, with a private region below it: thieves
// steal from the top of the public part [head, tail) while holding a
// per-deque lock, and the owning worker pops a public entry with THE's
// store, load and — on conflict — lock (Dijkstra-style mutual exclusion
// between one owner and the lock-holding thief). Entries the owner pushed
// while the public part already held something for thieves stay in
// [tail, bot), plain memory only the owner touches, until a push or pop that
// finds the public part dry, or Publish, moves tail up over them — the
// private deques of Acar, Charguéraud and Rainey (PPoPP '13) and Lace's
// split deque (van Dijk and van de Pol '14), synchronizing per steal rather
// than per push.
package deque

import (
	"sync"
	"sync/atomic"

	"fibril/internal/cacheline"
)

// initialCapacity is the starting ring size; the deque grows geometrically.
const initialCapacity = 64

// Deque is a THE-protocol work-stealing deque with an owner-private bottom.
// The zero value is ready to use. Push, Slot, PushSlot, Pop, PopRepublish and
// Publish may be called only by the owning worker; Steal and StealIf may be
// called by any worker and see the public part only.
//
// The rule the owner keeps: whenever it last operated on the deque, a thief
// probing it found something unless it held at most one entry. A thief can
// therefore find the public part dry while private entries exist only
// between a steal and the owner's next operation.
//
// The fields are laid out by writer (DESIGN.md §7): the owner stores bot on
// every lazy push and private pop and tail when it publishes or pops a
// public entry, thieves store head and the lock word. A runtime allocates
// one Deque per worker slot, back to back, and the fields alone are 64
// bytes: without the outer pads two slots' deques are neighbours in one size
// class and each owner's stores invalidate the other's whole deque.
type Deque[T any] struct {
	_ cacheline.Pad

	// Owner-written; thieves only read, and of these only tail and buf.
	tail atomic.Int64 // end of the public part: thieves take from [head, tail)
	bot  int64        // next index to push; [tail, bot) is private to the owner
	buf  []T          // ring buffer, len is a power of two; owner swaps under lock
	// tailStores counts the owner's stores to tail — the synchronizing
	// instructions of the owner path. Plain: exact once the owner is quiet.
	tailStores int64

	_ cacheline.Pad

	// Thief-written; the owner reads head, and takes the lock only to
	// grow or to settle a race for the last entry.
	head atomic.Int64 // next index to steal (top); only increases
	lock sync.Mutex   // serializes thieves, and conflict resolution

	_ cacheline.Pad
}

// Push adds t at the bottom of the deque and returns with it stealable.
// Owner-only; never blocks on thieves except while growing the ring.
func (d *Deque[T]) Push(t T) {
	*d.Slot() = t
	d.bot++
	d.setTail(d.bot) // over t and anything pushed lazily before it
}

// Slot returns the ring slot the next PushSlot will push, growing the ring
// first if it is full, for the caller to build the entry in: a record built
// elsewhere and copied in is copied with wide loads that wait for the
// narrower stores that built it to leave the store buffer. What the slot
// holds is stale. Owner-only.
func (d *Deque[T]) Slot() *T {
	bot := d.bot
	// One slot of slack is reserved: a lock-holding thief advances head
	// past an entry before it finishes reading it (claim first, inspect
	// second), so the head observed here may be one past an entry still
	// in use. Growing at len-1 keeps the ring from wrapping onto it.
	if d.buf == nil || int(bot-d.head.Load()) >= len(d.buf)-1 {
		d.grow(bot)
	}
	return &d.buf[bot&int64(len(d.buf)-1)]
}

// PushSlot pushes what the caller built in Slot without synchronizing: the
// entry stays private unless the public part is dry, in which case every
// private entry, the new one included, is published. It reports how many
// entries it made stealable. Owner-only.
func (d *Deque[T]) PushSlot() int {
	d.bot++
	if d.head.Load() < d.tail.Load() {
		return 0
	}
	return d.Publish()
}

// Publish makes every private entry stealable and reports how many there
// were — a plain compare when there are none. The scheduler calls it from a
// Fork made while a worker slot is idle, and before it drains what a task
// left behind, so that thieves can help. Owner-only.
func (d *Deque[T]) Publish() int {
	bot, tail := d.bot, d.tail.Load()
	if bot == tail {
		return 0
	}
	d.setTail(bot)
	return int(bot - tail)
}

// setTail is the owner's every store to tail: Go has no release store, so on
// amd64 each is an XCHG.
func (d *Deque[T]) setTail(tail int64) {
	d.tail.Store(tail)
	d.tailStores++
}

// Bottom returns the index the next push will use. Every push moves it up,
// every pop down and no thief touches it, so an owner that reads what it read
// when the deque was empty knows, without a look at head, that it is again.
func (d *Deque[T]) Bottom() int64 { return d.bot }

// TailStores reports how many times the owner has stored tail. It reads the
// owner's plain tally, so it is exact only while the owner is quiet.
func (d *Deque[T]) TailStores() int64 { return d.tailStores }

// grow replaces the ring with a larger one, carrying over [head, bot). It
// holds the lock so no thief reads the buffer mid-swap; the owner is the
// only other reader.
func (d *Deque[T]) grow(bot int64) {
	d.lock.Lock()
	defer d.lock.Unlock()
	head := d.head.Load() // settled: thieves move it under the lock we hold
	n := initialCapacity
	for int64(n) < (bot-head)*2 {
		n *= 2
	}
	nbuf := make([]T, n)
	for i := head; i < bot; i++ {
		nbuf[i&int64(n-1)] = d.buf[i&int64(len(d.buf)-1)]
	}
	d.buf = nbuf
}

// Pop removes and returns the bottom entry. Owner-only. See PopRepublish.
func (d *Deque[T]) Pop() (v T, ok bool) {
	_, ok = d.PopRepublish(&v)
	return v, ok
}

// PopRepublish is Pop into *dst that also reports how many entries it made
// stealable, so the caller can wake that many thieves; *dst is left alone
// when the deque is empty. A private entry is taken with a plain decrement
// and copy; if that leaves private entries behind a dry public part — a
// thief took what was there — they are published. A public entry is taken
// by the THE protocol: lock-free unless the deque might be down to its last
// entry and a thief may be racing for it. A failing Pop has held the lock
// and leaves the deque wholly empty. Owner-only.
func (d *Deque[T]) PopRepublish(dst *T) (published int, ok bool) {
	var zero T
	bot := d.bot
	tail := d.tail.Load()
	if bot > tail {
		bot--
		d.bot = bot
		*dst = d.buf[bot&int64(len(d.buf)-1)]
		d.buf[bot&int64(len(d.buf)-1)] = zero // release for GC
		if bot > tail && d.head.Load() >= tail {
			published = d.Publish()
		}
		return published, true
	}
	tail--
	d.setTail(tail)
	head := d.head.Load()
	if head > tail {
		// Possible conflict with a thief: restore and retry under the lock.
		d.setTail(tail + 1)
		d.lock.Lock()
		head = d.head.Load()
		if head > tail {
			d.lock.Unlock()
			return 0, false // deque empty; thief won
		}
		d.setTail(tail)
		d.lock.Unlock()
	}
	d.bot = tail
	*dst = d.buf[tail&int64(len(d.buf)-1)]
	d.buf[tail&int64(len(d.buf)-1)] = zero // release for GC
	return 0, true
}

// Steal removes and returns the top public entry. Any worker may call it;
// thieves serialize on the deque lock, as in Cilk.
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

// StealIf steals the top public entry only if pred accepts it, leaving the
// deque untouched otherwise. Restricted stealing — TBB's depth-restricted
// join (§3) — is expressed this way: the thief inspects the candidate under
// the deque lock and declines ineligible work.
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

// Len reports the number of public entries — what a probing thief sees; the
// owner may hold private entries beyond them until its next operation or
// Publish. It is a racy snapshot intended for stats and victim selection
// heuristics only.
func (d *Deque[T]) Len() int {
	n := int(d.tail.Load() - d.head.Load())
	if n < 0 {
		return 0
	}
	return n
}

// LazyHint reports whether the owner should publish more parallelism: true
// when the public part looks empty, meaning any thief probing this worker
// leaves hungry. It is the owner-side probe behind lazy loop splitting — two
// relaxed loads, no lock — and, like Len, is only a racy snapshot: a thief
// may empty the deque the instant after it returns false.
func (d *Deque[T]) LazyHint() bool { return d.tail.Load()-d.head.Load() <= 0 }
