package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fibril/internal/cacheline"
)

// parkLot holds the runtime's two idle resources apart, as Go's scheduler
// keeps idle Ps apart from idle Ms: worker slots nobody occupies (free) and
// goroutines without a slot (ws), each waiting on its own W's hand-off
// (W.wait). A thief that has searched — swept and yielded — for about as
// long as a wake-up costs (searchBudget) puts its stack back in the pool,
// frees its slot and lists itself, in one hold of the mutex (park); the last
// stolen child's finisher lists itself as it hands its slot to the resumed
// parent (childDone). wake gives a free slot per newly published task, and a
// suspend's spawnThief the parent's slot, to the newest listed goroutine,
// whose Go stack is the likeliest to be warm, and starts a goroutine only
// when none is listed: Listing 3's direction, a slot handed to a stack and
// never a stack to a sleeping worker. Parking keeps an idle thief from
// burning a core while preserving busy-leaves: every unit of queued work was
// published by a Fork or a Submit, and every publish calls wake, so no slot
// stays free while work exists. One task published gives out one slot.
//
// The lost-wakeup argument is a Dekker pair. A parking thief frees its slot
// (nfree, an atomic store) and only then peeks — loads every deque's public
// length and the ready list's counter, claiming nothing; a publisher makes
// the work visible (deque tail store, ready-list link) and only then loads
// nfree in wake. Under Go's sequentially-consistent atomics the peek cannot
// miss the publish while the publisher misses the free slot. A wake gives the
// slot to the newest listed goroutine, and a delivery is counted on the
// receiver's semaphore, so one made before it waits makes the wait return at
// once. A peek that sees work takes the mutex again: still listed with a
// slot free, the parker unlists itself and takes the slot; taken by a wake,
// its wait returns what the wake delivered; still listed with no slot free,
// it sleeps — every slot freed before its peek has gone to a goroutine whose
// first act is a sweep. A goroutine without a slot never steals in the peek:
// it could not run what it took. The peek runs without the mutex, which
// every Fork that saw a free slot would otherwise queue behind.
//
// A Fork publishes in two steps since the deque grew a private bottom: the
// lazy push, visible only if the public part was dry, and — whenever the
// load of nidle after it is not zero — Publish of everything still private,
// then a wake per entry made public. nidle counts the slots whose occupant
// has no task: free, given to a goroutine that has not taken a task yet, or
// held by a searching thief, from spawnThief or the end of a task until the
// next task is taken. So nidle >= nfree, and reading it is reading the free
// list: while any slot looks for work every deque is the all-public THE
// deque, and entries stay private only while all P slots are busy. The one
// new case is a push left private behind a public entry that another worker
// steals before the peek: the slot stays free until the victim's next deque
// operation finds its public part dry, republishes and wakes (ForkArgSized,
// Join) — one serial section of the victim, never a lost wake-up.
//
// A wake readies its goroutine into the waker's own P — its runnext slot —
// where it would wait until the waker blocks or yields; an idle P takes a
// runnext goroutine only after a usleep that Linux's timer slack stretches
// to ~50 µs. So a waker that keeps running yields once it has readied
// someone (handOff) and goes to the global run queue, which an idle P drains
// without that back-off; a root's completion does the same for the job's
// waiter (occupy). Wakers that block next — childDone, spawnThief, Close —
// and Submit, on the user's goroutine, do not yield.
//
// Every Fork loads nidle, and the lot is written only when a thief runs out
// of work, parks, is woken or retires, so it is one group, padded (DESIGN.md
// §7) away from whatever shares its size class.
type parkLot struct {
	_ cacheline.Pad

	mu     sync.Mutex
	closed atomic.Bool // stored under mu by close and open; occupants poll it between tasks
	// ws lists the goroutines without a slot, newest last. NewRuntime makes
	// it with room for Workers; it grows only past a new peak of goroutines
	// without a slot, which Workers plus the suspended frames bound.
	ws []*W
	// free holds the slots nobody occupies (at most Workers); nfree is its
	// length, for wake's lock-free test and the parker's half of the pair.
	free  []*worker
	nfree atomic.Int32

	// nidle counts worker slots whose occupant has no task (nidle >= nfree).
	// Every Fork reads it and keeps its children private only while it is
	// zero — while all P slots are busy.
	nidle atomic.Int32

	live   sync.WaitGroup // worker goroutines, for Close
	starts atomic.Int64   // goroutines started, counted at the one go statement (give)

	_ cacheline.Pad
}

// park frees w's slot and lists w — a thief already counted in nidle, whose
// stack is back in the pool — in one hold of the mutex, then peeks (see the
// type comment). It does not wait: the caller's wait on w's hand-off returns
// the slot w occupies next, at once if the peek took one back or a wake
// already delivered, or nil — at once on a closed lot, where the slot leaves
// with the runtime. sleeps, the caller's ThiefParks counter, is incremented
// when the peek comes back empty.
func (p *parkLot) park(w *W, sleeps *atomic.Int64, peek func() bool) {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		p.nidle.Add(-1)
		return
	}
	p.free = append(p.free, w.slot)
	p.nfree.Store(int32(len(p.free)))
	p.listLocked(w)
	p.mu.Unlock()
	if !peek() {
		sleeps.Add(1)
		return
	}
	p.mu.Lock()
	if i := slices.Index(p.ws, w); i >= 0 && len(p.free) > 0 {
		p.ws = slices.Delete(p.ws, i, i+1)
		w.deliver(p.popFreeLocked())
	}
	p.mu.Unlock()
}

// list lists w, which has just handed its slot to a resumed parent and put
// its stack back (childDone), unless the lot is closed: then w counts no
// wait, and its wait returns nil at once.
func (p *parkLot) list(w *W) {
	p.mu.Lock()
	if !p.closed.Load() {
		p.listLocked(w)
	}
	p.mu.Unlock()
}

// listLocked counts w's wait on its hand-off and lists w.
func (p *parkLot) listLocked(w *W) {
	w.sem.Add(1)
	p.ws = append(p.ws, w)
}

// popFreeLocked takes a free slot off the list; there is one.
func (p *parkLot) popFreeLocked() *worker {
	k := len(p.free) - 1
	slot := p.free[k]
	p.free = p.free[:k]
	p.nfree.Store(int32(k))
	return slot
}

// idleLocked takes the newest listed goroutine off the list for a slot the
// caller gives out. With none listed it returns nil and counts, in live, the
// goroutine give starts: under the mutex, so a Close that closes the lot
// after this hold waits for it.
func (p *parkLot) idleLocked() *W {
	k := len(p.ws) - 1
	if k < 0 {
		p.live.Add(1)
		return nil
	}
	w := p.ws[k]
	p.ws[k] = nil
	p.ws = p.ws[:k]
	return w
}

// close delivers nil — exit — to every listed goroutine and takes the free
// slots off the lot and off nidle; until open it lists nobody, frees no slot
// and makes every occupant leave its slot (occupy).
func (p *parkLot) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed.Store(true)
	for _, w := range p.ws {
		w.deliver(nil)
	}
	clear(p.ws)
	p.ws = p.ws[:0]
	p.nidle.Add(-int32(len(p.free)))
	p.free = p.free[:0]
	p.nfree.Store(0)
}

// open readies the lot for a new Start after a close.
func (p *parkLot) open() {
	p.mu.Lock()
	p.closed.Store(false)
	p.mu.Unlock()
}

// wake gives up to n free slots — one per newly published task — each to the
// newest listed goroutine, or to a new one when none is listed, and reports
// whether it gave any. Nothing published or no slot free takes no lock, so
// Fork, Submit and a completion stay cheap while every slot is busy. A slot
// and its goroutine are taken in one hold of the mutex per slot.
func (rt *Runtime) wake(n int) bool {
	p := rt.park
	gave := false
	for ; n > 0 && p.nfree.Load() != 0; n-- {
		p.mu.Lock()
		if len(p.free) == 0 {
			p.mu.Unlock()
			break
		}
		slot, w := p.popFreeLocked(), p.idleLocked()
		p.mu.Unlock()
		rt.give(slot, w)
		gave = true
	}
	return gave
}

// handOff is wake for a waker that keeps running: if it readied a goroutine,
// it yields its P, so that goroutine runs now instead of waiting in this P's
// runnext slot until this goroutine blocks (see the parkLot comment).
func (rt *Runtime) handOff(n int) {
	if rt.wake(n) {
		runtime.Gosched()
	}
}

// spawnThief gives slot — a suspending parent's, or one of Start's — as wake
// gives a free one: to the newest listed goroutine, or a new one if none is.
// The slot counts idle from here — not from whenever the thief first runs,
// which on a host short of CPUs is after the busy workers have been
// descheduled with their work still private — until it has a task (nidle).
func (rt *Runtime) spawnThief(slot *worker) {
	p := rt.park
	p.nidle.Add(1)
	p.mu.Lock()
	w := p.idleLocked()
	p.mu.Unlock()
	rt.give(slot, w)
}

// give delivers slot to w, a goroutine idleLocked took off the list, or, when
// w is nil, starts the goroutine idleLocked counted.
func (rt *Runtime) give(slot *worker, w *W) {
	if w != nil {
		w.deliver(slot)
		return
	}
	rt.park.starts.Add(1)
	go rt.thiefLoop(slot)
}

// hasWork is the parker's peek: whether a sweep could find something now —
// a deque with a public entry or an admitted root. It claims nothing.
func (rt *Runtime) hasWork() bool {
	for _, slot := range rt.workers {
		if slot.deque.Len() > 0 {
			return true
		}
	}
	return rt.admit.nready.Load() > 0
}
