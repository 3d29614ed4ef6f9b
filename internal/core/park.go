package core

import (
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
// The search phase sits entirely before registration. A searching thief is
// not registered, holds no token and is owed no wake: it is a runnable
// goroutine that will sweep again by itself, so a publish that finds
// nparked == 0 has nobody to wake (what a Fork does for a searching thief is
// leave its children where the next sweep sees them — nidle, below).
// Everything below — register, final sweep, sleep, tokens — therefore reads
// exactly as it would if thieves parked on their first failed sweep.
//
// Wake-one. wake(n) deposits up to n wake tokens — never more than there
// are registered thieves without one — and Signals once per token, so
// publishing a single task wakes a single thief instead of stampeding
// every idle worker through one cond.Broadcast (the thundering herd a
// serving runtime pays on every Submit). Only close broadcasts.
//
// The lost-wakeup argument is a Dekker pair. A parking thief registers
// itself (nparked++) and only then runs one final steal sweep; a publisher
// makes the work visible (deque push, ready-list link) and only then
// reads nparked. Under Go's sequentially-consistent atomics it is
// impossible for the final sweep to miss the publish AND the publisher to
// miss the registration, so either the thief leaves with the task or the
// publisher enters wake and deposits a token.
//
// A Fork's publish has two steps since the deque grew a private bottom: the
// lazy push, which makes the child visible only if the deque's public part
// was dry, and — whenever the load of nidle that follows it is not zero —
// Publish of everything the deque still holds privately, then wake, one
// token per entry made public. nidle counts the slots whose occupant has no
// task, from the moment a thief is spawned or finishes one until it has the
// next: a thief is counted there long before it registers here, so nidle is
// never below nparked and reading it is reading the registration. While any
// slot is looking for work, then, every deque is the all-public THE deque it
// was; entries stay private only while all P slots are busy. So a Fork that
// could have missed a registration is, as before, one whose push the final
// sweep cannot miss, with one new case: the push stayed private because the
// public part held something and nobody was idle, and another worker,
// finishing its task, steals that something before the final sweep gets
// there. The thief then sleeps while its victim holds private work — until
// the victim's next deque operation, which finds the public part dry,
// republishes and wakes (ForkArgSized, Join): at most one serial section
// of the victim, never a lost wake-up.
//
// The final sweep runs WITHOUT mu: it is a full steal sweep, and under mu
// every Fork that saw nparked != 0 would queue behind the whole of it. That
// leaves a window between the sweep and the sleep, which tokens close
// because they are counted state, not events: a token deposited in the
// window is still there when the thief takes mu, and it skips the sleep.
// Tokens are anonymous — a sleeper that the Signal reached may spend the
// token meant for the thief in the window, or the reverse — and that is
// enough, because all a publish needs is one sweep that starts after it, by
// anyone.
//
// Two cases deposit less than one token per publish. wake may find every
// registered thief already holding a pending token (avail <= 0): a token
// holder is committed to waking and sweeping, and can only re-park through
// another registered-then-swept park call, whose sweep runs after this
// publish. And a thief whose final sweep found a task leaves without
// spending a token deposited for it meanwhile: it is busy now, which is
// what the token was for, and the stale token (at most one per registered
// thief, by the cap) costs a later parker one extra sweep before it
// sleeps. Work is never stranded behind a dropped wake.
//
// Every Fork loads nidle, and the whole lot is written only when a thief
// runs out of work, parks or is woken, so it is one group, padded (DESIGN.md
// §7) away from whatever shares its size class.
type parkLot struct {
	_ cacheline.Pad

	mu     sync.Mutex
	cond   *sync.Cond
	tokens int  // pending wakes; guarded by mu
	closed bool // guarded by mu

	// nparked counts registered thieves: in their final sweep, waiting for
	// mu, or asleep. wake's lock-free fast check reads it.
	nparked atomic.Int32

	// nidle counts worker slots whose occupant has no task: a thief spawned
	// and not yet run, searching, registered or asleep (nidle >= nparked).
	// Every Fork reads it and keeps its children private only while it is
	// zero — while all P slots are busy.
	nidle atomic.Int32

	_ cacheline.Pad
}

func newParkLot() *parkLot {
	p := &parkLot{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// open readies the lot for a new Run after a close.
func (p *parkLot) open() {
	p.mu.Lock()
	p.closed = false
	p.tokens = 0
	p.mu.Unlock()
}

// park puts the calling thief, already counted in nidle, to sleep until the
// next wake or close.
// finalSweep runs after the caller is registered as parked and before it
// takes mu (see the type comment); if it finds a task the caller does not
// sleep and the task is returned. park returns (zero, false) on any
// wake-up — the caller re-enters its steal loop. sleeps, the caller's
// ThiefParks counter, is incremented if the caller actually goes to sleep.
func (p *parkLot) park(sleeps *atomic.Int64, finalSweep func() (task, bool)) (task, bool) {
	p.nparked.Add(1)
	defer p.nparked.Add(-1)
	if t, ok := finalSweep(); ok {
		return t, true
	}
	p.mu.Lock()
	if p.tokens == 0 && !p.closed {
		sleeps.Add(1)
	}
	for p.tokens == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.tokens > 0 {
		p.tokens--
	}
	p.mu.Unlock()
	return task{}, false
}

// wake unparks up to n thieves — one per newly published task. The fast
// paths — nothing published, or nobody parked — take no lock, so Fork,
// Submit and a completion that promoted nothing stay cheap while the system
// is busy. Tokens are capped at the number of registered thieves without
// one: a Signal beyond that has nobody new to reach, and the uncapped count
// would make later sleepers burn through stale tokens.
func (p *parkLot) wake(n int) {
	if n <= 0 || p.nparked.Load() == 0 {
		return
	}
	p.mu.Lock()
	if avail := int(p.nparked.Load()) - p.tokens; avail > 0 {
		if n > avail {
			n = avail
		}
		p.tokens += n
		for i := 0; i < n; i++ {
			p.cond.Signal()
		}
	}
	p.mu.Unlock()
}

// close wakes everyone and keeps the lot closed until the next open, so
// thieves parked around the end of a Run cannot sleep through shutdown.
func (p *parkLot) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// parked reports how many thieves are currently parked (racy snapshot).
func (p *parkLot) parked() int { return int(p.nparked.Load()) }
