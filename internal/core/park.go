package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fibril/internal/cacheline"
)

// parkLot is the quiet half of the idle protocol: a thief that has searched
// — swept and yielded — for about as long as a wake-up costs (searchBudget)
// parks here, and every publication of new work (a Fork, an admitted root)
// wakes parked thieves. Parking is what keeps an idle thief from burning a
// core, while preserving busy-leaves: whenever work exists (every unit of
// queued work was published by a Fork or a Submit, and every publish calls
// wake), no thief stays parked.
//
// A parked thief sleeps where every goroutine of this package without work
// sleeps: on its own W's hand-off (W.wait), listed on thieves. wake(n)
// delivers to the n newest listed thieves, taking each off the list as it
// delivers, so publishing a single task wakes a single thief instead of
// stampeding every idle worker, and a delivery is never left lying around
// for a later parker: one that lists itself after a wake finds nothing owed.
//
// A delivery readies the thief into the waker's own P — its runnext slot —
// where it would wait until the waker blocks or yields; an idle P takes a
// runnext goroutine only after a usleep that Linux's timer slack stretches to
// ~50 µs. So a waker that keeps running hands its P over (handOff): it yields
// once it has woken someone, the thief runs at once, and the waker goes to
// the global run queue, which an idle P drains without that back-off. A root's
// completion does the same for the job's waiter (occupy). Wakers that block
// next — childDone, spawnThief, Close — and Submit, on the user's goroutine,
// do not yield.
//
// The search phase sits entirely before listing. A searching thief is not
// listed and is owed no wake: it is a runnable goroutine that will sweep
// again by itself, so a publish that finds the list empty has nobody to
// wake (what a Fork does for a searching thief is leave its children where
// the next sweep sees them — nidle, below). Everything below therefore
// reads exactly as it would if thieves parked on their first failed sweep.
//
// The lost-wakeup argument is a Dekker pair. A parking thief lists itself
// (the list's length, an atomic store) and only then runs one final steal
// sweep; a publisher makes the work visible (deque push, ready-list link)
// and only then loads the length. Under Go's sequentially-consistent
// atomics it is impossible for the final sweep to miss the publish AND the
// publisher to miss the listing, so either the thief leaves with the task
// or the publisher delivers to a listed thief. The final sweep runs without
// the list's mutex — under it every Fork that saw a listed thief would
// queue behind the whole sweep — and needs no window closed after it: a
// delivery is counted on the thief's semaphore, so one made between the
// sweep and the sleep is there when the thief waits, which returns at once.
// A thief whose final sweep found a task takes itself off the list; if a
// wake took it first, it consumes that delivery and passes the wake on to
// the next listed thief, since it is busy with what it found.
//
// A Fork's publish has two steps since the deque grew a private bottom: the
// lazy push, which makes the child visible only if the deque's public part
// was dry, and — whenever the load of nidle that follows it is not zero —
// Publish of everything the deque still holds privately, then wake, one
// per entry made public. nidle counts the slots whose occupant has no task,
// from the moment a thief is spawned or finishes one until it has the
// next: a thief is counted there long before it lists itself here, so nidle
// is never below the list's length and reading it is reading the listing.
// While any slot is looking for work, then, every deque is the all-public
// THE deque it was; entries stay private only while all P slots are busy.
// So a Fork that could have missed a listing is, as before, one whose push
// the final sweep cannot miss, with one new case: the push stayed private
// because the public part held something and nobody was idle, and another
// worker, finishing its task, steals that something before the final sweep
// gets there. The thief then sleeps while its victim holds private work —
// until the victim's next deque operation, which finds the public part dry,
// republishes and wakes (ForkArgSized, Join): at most one serial section of
// the victim, never a lost wake-up.
//
// Every Fork loads nidle, and the whole lot is written only when a thief
// runs out of work, parks or is woken, so it is one group, padded (DESIGN.md
// §7) away from whatever shares its size class.
type parkLot struct {
	_ cacheline.Pad

	// thieves lists the parked thieves: in their final sweep or asleep.
	// wake's lock-free fast check reads its length.
	thieves waitList

	// nidle counts worker slots whose occupant has no task: a thief spawned
	// and not yet run, searching, listed or asleep (nidle >= parked()).
	// Every Fork reads it and keeps its children private only while it is
	// zero — while all P slots are busy.
	nidle atomic.Int32

	_ cacheline.Pad
}

// park lists w, a thief already counted in nidle, and sleeps on its
// hand-off until the next wake or close. finalSweep runs after the listing
// (see the type comment); if it finds a task the caller does not sleep and
// the task is returned. park returns (zero, false) on any wake-up, and at
// once on a closed lot — the caller re-enters its steal loop. sleeps, the
// caller's ThiefParks counter, is incremented when the final sweep comes
// back empty.
func (p *parkLot) park(w *W, sleeps *atomic.Int64, finalSweep func() (task, bool)) (task, bool) {
	if !p.thieves.add(w) {
		return task{}, false
	}
	if t, ok := finalSweep(); ok {
		if !p.thieves.remove(w) {
			w.wait()
			p.handOff(1)
		}
		return t, true
	}
	sleeps.Add(1)
	w.wait()
	return task{}, false
}

// wake unparks up to n thieves — one per newly published task — and
// reports whether it delivered to any. The fast paths — nothing published,
// or nobody parked — take no lock, so Fork, Submit and a completion that
// promoted nothing stay cheap while the system is busy.
func (p *parkLot) wake(n int) bool {
	if n <= 0 || p.parked() == 0 {
		return false
	}
	return p.thieves.deliver(n)
}

// handOff is wake for a waker that keeps running: if it woke a thief, it
// yields its P, so the thief runs now instead of waiting in this P's runnext
// slot until this goroutine blocks (see the type comment).
func (p *parkLot) handOff(n int) {
	if p.wake(n) {
		runtime.Gosched()
	}
}

// parked reports how many thieves are currently parked (racy snapshot).
func (p *parkLot) parked() int { return int(p.thieves.n.Load()) }

// waitList holds Ws whose goroutines wait on their own hand-off (W.wait) for
// someone to deliver to them: the parked thieves of the park lot, and the
// spares — retired thieves waiting for spawnThief to deliver the slot of
// the next suspended frame. It holds at most Workers of them; close
// delivers nil to every waiter and refuses new ones until open.
type waitList struct {
	mu     sync.Mutex
	closed bool
	ws     []*W         // capacity Workers, made by NewRuntime; newest last
	n      atomic.Int32 // len(ws), for readers that take no lock
}

// add counts w's wait on its hand-off and lists w, unless the list is
// closed or full: then w counts none, its wait would return at once, and
// add reports false.
func (l *waitList) add(w *W) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || len(l.ws) == cap(l.ws) {
		return false
	}
	w.sem.Add(1)
	l.ws = append(l.ws, w)
	l.n.Store(int32(len(l.ws)))
	return true
}

// take removes the most recently listed waiter, whose Go stack is the
// likeliest to be warm; nil if none waits. The caller delivers to it.
func (l *waitList) take() *W {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.ws)
	if k == 0 {
		return nil
	}
	w := l.ws[k-1]
	l.ws[k-1] = nil
	l.ws = l.ws[:k-1]
	l.n.Store(int32(k - 1))
	return w
}

// remove takes w off the list and gives its counted wait back. It reports
// false if w is not listed: someone already took w, and w must consume the
// delivery in its wait.
func (l *waitList) remove(w *W) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := slices.Index(l.ws, w)
	if i < 0 {
		return false
	}
	l.ws = slices.Delete(l.ws, i, i+1)
	l.n.Store(int32(len(l.ws)))
	w.sem.Done()
	return true
}

// deliver wakes the n most recently listed waiters, taking each off the
// list, with no slot, and reports whether it woke any.
func (l *waitList) deliver(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := max(len(l.ws)-n, 0)
	for i, w := range l.ws[k:] {
		w.deliver(nil)
		l.ws[k+i] = nil
	}
	woke := k < len(l.ws)
	l.ws = l.ws[:k]
	l.n.Store(int32(k))
	return woke
}

// close releases every waiter and refuses new ones until open.
func (l *waitList) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.deliver(math.MaxInt)
}

// open readies the list for a new Start after a close.
func (l *waitList) open() {
	l.mu.Lock()
	l.closed = false
	l.mu.Unlock()
}
