package core

import (
	"sync"
	"sync/atomic"

	"fibril/internal/cacheline"
)

// parkLot is the quiet end of the thief backoff ladder: a thief that has
// spun and yielded through repeated empty sweeps parks here, and every
// publication of new work (a Fork, a dispatched root, shared StealHalf
// loot) wakes parked thieves. This replaces the unbounded Gosched spin
// that burned a full core per idle thief, while preserving busy-leaves:
// whenever work exists (every unit of queued work was published by a Fork
// or a Submit, and every publish calls wake), no thief stays parked.
//
// Wake-one. wake(n) deposits up to n wake tokens — never more than there
// are sleepers without one — and Signals once per token, so publishing a
// single task wakes a single thief instead of stampeding every idle
// worker through one cond.Broadcast (the thundering herd a serving
// runtime pays on every Submit). wakeAll keeps the broadcast for the
// cases that really do make everyone runnable: close/teardown and
// StealHalf loot bursts that publish several tasks at once.
//
// The lost-wakeup argument is still a Dekker pair. A parking thief
// registers itself (nparked++) and only then runs one final steal sweep;
// a publisher makes the work visible (deque push, intake-shard link) and
// only then reads nparked. Under Go's sequentially-consistent atomics it
// is impossible for the final sweep to miss the publish AND the publisher
// to miss the registration, so either the thief leaves with the task or
// the publisher enters wake — and wake serializes with the thief's mutex
// section, so a deposited token cannot fall between the final sweep and
// the sleep. Wake-one adds one case to the argument: wake may find every
// sleeper already holding a pending token (avail == 0) and deposit
// nothing. That is safe because a token holder is committed to waking and
// sweeping, and a thief can only re-park through another registered-then-
// swept park call — whose final sweep runs after this publish and
// therefore sees the task (or sees it already taken). Work is never
// stranded behind a dropped wake; at worst a token is spent on a sweep
// that finds the task already claimed.
//
// Every Fork loads nparked, and the whole lot is written only when a thief
// parks or is woken, so it is one group, padded (DESIGN.md §15) away from
// whatever shares its size class.
type parkLot struct {
	_ cacheline.Pad

	mu     sync.Mutex
	cond   *sync.Cond
	tokens int  // pending wakes, <= nparked; guarded by mu
	closed bool // guarded by mu

	// nparked mirrors the number of sleepers for wake's lock-free fast
	// check; it is only written with mu held.
	nparked atomic.Int32

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

// park puts the calling thief to sleep until the next wake or close.
// finalSweep runs after the caller is registered as parked; if it finds a
// task the caller does not sleep and the task is returned. park returns
// (zero, false) on any wake-up — the caller re-enters its steal loop.
func (p *parkLot) park(finalSweep func() (task, bool)) (task, bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return task{}, false
	}
	p.nparked.Add(1)
	if t, ok := finalSweep(); ok {
		p.nparked.Add(-1)
		p.mu.Unlock()
		return t, true
	}
	for p.tokens == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.tokens > 0 {
		p.tokens--
	}
	p.nparked.Add(-1)
	p.mu.Unlock()
	return task{}, false
}

// wake unparks up to n thieves — one per newly published task. The fast
// path — nobody parked — is a single atomic load, so Fork and Submit stay
// cheap while the system is busy. Tokens are capped at the number of
// sleepers without one: a Signal beyond that has nobody new to reach, and
// the uncapped count would make later sleepers burn through stale tokens.
func (p *parkLot) wake(n int) {
	if p.nparked.Load() == 0 {
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

// wakeAll unparks every parked thief — the broadcast retained for
// multi-task publications (StealHalf loot bursts) where waking thieves
// one Signal at a time would serialize the fan-out.
func (p *parkLot) wakeAll() {
	if p.nparked.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.tokens = int(p.nparked.Load())
	p.cond.Broadcast()
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
