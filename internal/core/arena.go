package core

import (
	"sync/atomic"
	"unsafe"
)

// This file implements the per-worker-slot free-list arena behind the
// zero-allocation fork path, after Blelloch & Wei's per-processor
// fixed-size constant-time allocation: every block is the same size, each
// worker slot owns a private free list, and allocation/free are a pointer
// pop/push with no atomics — slot occupancy is exclusive, and slot
// handoffs (suspend/resume, thief retirement) already establish
// happens-before edges. Blocks migrate freely between slots: a block
// acquired on one slot may be released on whichever slot its releaser
// occupies by then, which is exactly how Blelloch–Wei keeps per-processor
// pools balanced without a global structure.
//
// Under heavy stealing the local lists alone are not enough: steal-heavy
// workloads systematically acquire on one slot and release on another, so
// the releaser's hoard fills to its cap and overflows while the acquirer's
// empties and falls back to the heap — precisely the GC churn the arena
// exists to avoid. Each slot therefore also owns a *remote-free* list (the
// weave-allocator shape): a lock-free MPSC Treiber stack any worker may
// push a block onto when it cannot keep it locally, drained wholesale by
// the home slot on its next local miss. Push is a single CAS (ABA-safe:
// only the drain removes, and it removes the whole list with one Swap);
// drain is one Swap plus a plain-walk adoption.

// ScratchBytes is the size of a Scratch block's payload area.
const ScratchBytes = 16 * 8

// arenaHoardCap bounds a slot's local free list; a release beyond it is
// handed to the block's home slot's remote-free list instead.
const arenaHoardCap = 64

// remoteHoardCap bounds a slot's remote-free list (approximately — the
// gate reads a racy counter). A block that fits on neither list is dropped
// for the GC to collect, counted in Stats.ArenaDrops.
const remoteHoardCap = 64

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
	next *Scratch // free-list link; nil while the block is in flight
	// home is the slot whose arena the block belongs to: the slot it was
	// last acquired from or hoarded on. Only the block's exclusive owner
	// writes it.
	home  int32
	frame Frame
	buf   [ScratchBytes / 8]uint64
}

// Frame returns the block's embedded Frame, ready for W.Init.
func (s *Scratch) Frame() *Frame { return &s.frame }

// Ptr returns the payload area, to be cast to the caller's argument
// record type (at most ScratchBytes large; see the type comment for the
// reachability contract).
func (s *Scratch) Ptr() unsafe.Pointer { return unsafe.Pointer(&s.buf[0]) }

// frameArena is the local half of one slot's Scratch free lists: plain
// memory touched only by the goroutine occupying the slot.
type frameArena struct {
	free *Scratch
	n    int
}

// remoteFrees is the other half: the MPSC hand-back list, pushed with a
// CAS by any worker releasing one of this slot's blocks, emptied with one
// Swap by the slot owner on a local miss. It sits on lines of its own in
// the worker slot (see worker), away from the local half its pushers never
// touch. n is the racy length gate for remoteHoardCap; it is advisory only
// — exact accounting comes from the RemoteFrees/RemoteDrains counters.
type remoteFrees struct {
	head atomic.Pointer[Scratch]
	n    atomic.Int32
}

// push hands s back to this list's home slot. Any worker may call it; the
// Treiber push is ABA-safe because the only removal is the drain's
// whole-list Swap.
func (r *remoteFrees) push(s *Scratch) {
	for {
		old := r.head.Load()
		s.next = old
		if r.head.CompareAndSwap(old, s) {
			r.n.Add(1)
			return
		}
	}
}

// AcquireScratch returns a Scratch block: from the current slot's local
// free list when one is hoarded (the steady-state, allocation-free path),
// from the slot's remote-free list on a local miss (adopting every block
// foreign releasers handed back), and from the heap only when both are
// empty.
func (w *W) AcquireScratch() *Scratch {
	w.arenaAcquires++
	a := &w.slot.arena
	if s := a.free; s != nil {
		a.free = s.next
		a.n--
		s.next = nil
		return s
	}
	if w.slot.remote.n.Load() > 0 {
		if s := w.drainRemote(); s != nil {
			return s
		}
	}
	s := new(Scratch)
	s.home = int32(w.slot.id)
	return s
}

// drainRemote empties the slot's remote-free list, adopting every block
// into the local list (re-stamping home — they are this slot's blocks
// again) and returning one of them; nil if the list was empty. The local
// list may transiently exceed arenaHoardCap after a large drain; later
// releases shed the excess through the remote path or the GC.
func (w *W) drainRemote() *Scratch {
	s := w.slot.remote.head.Swap(nil)
	if s == nil {
		return nil
	}
	a := &w.slot.arena
	home := int32(w.slot.id)
	n := 1
	tail := s
	s.home = home
	for tail.next != nil {
		tail = tail.next
		tail.home = home
		n++
	}
	w.slot.remote.n.Add(int32(-n))
	w.stats.remoteDrains.Add(int64(n))
	rest := s.next
	s.next = nil
	if rest != nil {
		tail.next = a.free
		a.free = rest
		a.n += n - 1
	}
	return s
}

// ReleaseScratch returns s to the current slot's free list — or, when the
// local hoard is full, hands it back to its home slot's remote-free list,
// so steal-heavy acquire-here/release-there traffic recirculates instead of
// churning the GC. A block that fits nowhere is dropped (Stats.ArenaDrops).
//
// It must only be called once the block is quiescent: the Join on its
// frame has returned and no task still holds the payload pointer. It must
// NOT be called on a panic unwind — an in-flight child may still reference
// the block, so leaking it to the GC is the only safe disposal; the
// callers' release sites are skipped by unwinding naturally, never
// deferred.
//
// The frame's references are dropped so a hoarded block pins nothing; the
// resume channel is deliberately kept, making repeat suspensions on
// recycled frames allocation-free. After a Join that returned, count is
// zero and the panic slot empty, so neither costs a locked store here.
func (w *W) ReleaseScratch(s *Scratch) {
	w.arenaReleases++
	f := &s.frame
	if f.count.Load() != 0 {
		f.count.Store(0)
	}
	if f.panicked.Load() != nil {
		f.panicked.Store(nil)
	}
	f.pending = 0
	f.stack = nil
	a := &w.slot.arena
	if a.n < arenaHoardCap {
		s.home = int32(w.slot.id) // adopted: the block lives here now
		s.next = a.free
		a.free = s
		a.n++
		return
	}
	if r := &w.rt.workers[s.home].remote; r.n.Load() < remoteHoardCap {
		r.push(s)
		w.stats.remoteFrees.Add(1)
		return
	}
	w.stats.arenaDrops.Add(1) // heap fallback: the GC takes it
}
