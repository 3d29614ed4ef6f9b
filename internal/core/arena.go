package core

import "unsafe"

// This file implements the per-worker-slot free-list arena behind the
// zero-allocation fork path, after Blelloch & Wei's per-processor
// fixed-size constant-time allocation: every block is the same size, each
// worker slot owns a private free list, and allocation/free are a pointer
// pop/push with no atomics — slot occupancy is exclusive, and slot
// handoffs (suspend/resume, thief retirement) already establish
// happens-before edges. Blocks migrate freely between slots: a block
// acquired on one slot is adopted by whichever slot its releaser occupies
// by then, which is exactly how Blelloch–Wei keeps per-processor pools
// balanced without a global structure. A release that finds its slot's
// list full drops the block to the GC. Adoption keeps that rare: 11 of
// 17.5 million releases of fib, integrate, nqueens and knapsack at P = 2,
// 4 and 8, and 24 of half a million of grain-1 LazyFor at P = 4 on 2 CPUs
// (EXPERIMENTS.md, "Arena hand-back").

// ScratchBytes is the size of a Scratch block's payload area.
const ScratchBytes = 16 * 8

// arenaHoardCap bounds a slot's free list; a release beyond it is dropped
// for the GC to collect, counted in Stats.ArenaDrops.
const arenaHoardCap = 64

// Scratch is one fixed-size arena block: a Frame plus ScratchBytes of
// payload for the fork's argument record, so one block carries everything
// a ForkArg spawn needs. Acquire with W.AcquireScratch, release with
// W.ReleaseScratch after the frame's Join has returned.
//
// The payload area is untyped and NOT scanned by the garbage collector
// (it is pointer-free memory). A pointer stored in it keeps nothing
// alive: callers must guarantee every object referenced from the payload
// is independently reachable — e.g. from a live local, a parameter kept
// alive with runtime.KeepAlive, or another scanned structure — for as
// long as the block is in flight. The loop engine and the benchmarks
// satisfy this by keeping the user's closures and result slots alive in
// the root caller's frame for the duration.
type Scratch struct {
	next  *Scratch // free-list link; nil while the block is in flight
	frame Frame
	buf   [ScratchBytes / 8]uint64
}

// Frame returns the block's embedded Frame, ready for W.Init.
func (s *Scratch) Frame() *Frame { return &s.frame }

// Ptr returns the payload area, to be cast to the caller's argument
// record type (at most ScratchBytes large; see the type comment for the
// reachability contract).
func (s *Scratch) Ptr() unsafe.Pointer { return unsafe.Pointer(&s.buf[0]) }

// frameArena is one slot's Scratch free list: plain memory touched only by
// the goroutine occupying the slot.
type frameArena struct {
	free *Scratch
	n    int
}

// AcquireScratch returns a Scratch block: from the current slot's free list
// when one is hoarded (the steady-state, allocation-free path), from the
// heap otherwise.
func (w *W) AcquireScratch() *Scratch {
	w.arenaAcquires++
	a := &w.slot.arena
	if s := a.free; s != nil {
		a.free = s.next
		a.n--
		s.next = nil
		return s
	}
	return new(Scratch)
}

// ReleaseScratch returns s to the current slot's free list, whichever slot
// acquired it — or, when that list already holds arenaHoardCap blocks,
// drops it to the GC (Stats.ArenaDrops).
//
// It must only be called once the block is quiescent: the Join on its
// frame has returned and no task still holds the payload pointer. It must
// NOT be called on a panic unwind — an in-flight child may still reference
// the block, so leaking it to the GC is the only safe disposal; the
// callers' release sites are skipped by unwinding naturally, never
// deferred.
//
// The frame's owner is dropped so a hoarded block pins no W. Nothing else
// is reset: a Join that returned has seen count zero and left the panic
// slot empty, and the next Init resets count and pending. That keeps the
// release within the inliner's budget.
func (w *W) ReleaseScratch(s *Scratch) {
	w.arenaReleases++
	s.frame.owner = nil
	slot := w.slot
	if slot.arena.n < arenaHoardCap {
		s.next = slot.arena.free
		slot.arena.free = s
		slot.arena.n++
		return
	}
	slot.arenaDrops.Add(1) // the GC takes it
}
