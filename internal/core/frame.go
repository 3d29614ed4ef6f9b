package core

import (
	"sync/atomic"
	"time"

	"fibril/internal/trace"
)

// Frame is the analogue of the paper's fibril_t (Listing 2): it
// synchronizes the child tasks forked on it and holds the execution state
// needed to resume its owner after a suspension. Declare one per fork-join
// region, initialize it with W.Init, fork children with W.Fork, and wait
// with W.Join — the same protocol as fibril_init / fibril_fork /
// fibril_join. A Frame may be reused for several fork...join phases, but
// never concurrently, and — as a fibril_t belongs to the function that
// declares it — only the task that called Init forks and joins on it: a
// child does not fork on its parent's frame.
//
// The zero Frame is not ready; W.Init must run before the first Fork, just
// as fibril_init must precede the first fibril_fork.
type Frame struct {
	// count is the number of children that were STOLEN and have not finished
	// yet, with the owner's suspension state folded into bit 30
	// (frameSuspended) — the paper's fibril_t.count (Listing 3). It is never
	// touched on the fork path: a thief increments it under the victim's
	// deque lock, after its claim on the child succeeded (countStolen), and
	// decrements it when the child completes (childDone). The owner reads it
	// only after its own Pop has failed — Pop fails under that same lock, so
	// every completed steal's increment is visible by then — and children
	// the owner pops back and runs itself never appear in it at all.
	// Folding the flag into the same word makes the last stolen child's
	// decrement atomically reveal whether it must resume a parked owner —
	// and, crucially for arena-recycled frames, makes that decrement the
	// child's *final* touch of the frame when the owner never suspended, so
	// the owner may reuse the memory the moment it observes zero.
	count atomic.Int32

	// pending is the owner's private tally of children it pushed on its
	// deque and has neither popped back nor found stolen: Fork increments
	// it, Join decrements it per own child popped and zeroes it on the first
	// failed Pop. Plain memory — only the owning goroutine touches it. It is
	// an upper bound, not an exact count: a nested Join (or one that unwound
	// past an abandoned inner frame) may already have popped and run some of
	// this frame's children, and after a resume on another slot the children
	// left behind were all stolen. Either way the deque was empty when that
	// happened, so the stale tally costs this frame's Join one failed Pop.
	pending int32

	// owner is the W that called Init, on whose stack the frame lives (the
	// analogue of fibril_t.stack): the last stolen child delivers its slot
	// to the owner's hand-off.
	owner *W

	depth int32 // invocation depth of the owning task

	// panicked is the first panic among the frame's children: set by a CAS
	// from nil on whichever worker ran the child, taken by the owner's Join.
	panicked atomic.Pointer[TaskPanic]
}

// frameSuspended is the bit the owner sets in Frame.count when it commits
// a suspension: well above any real steal count, well below the sign bit.
const frameSuspended = int32(1) << 30

// Depth returns the invocation-tree depth recorded at Init.
func (f *Frame) Depth() int { return int(f.depth) }

// Init prepares the frame for forking: records the owner and the current
// invocation depth.
func (w *W) Init(f *Frame) {
	// count is zero already unless the frame was abandoned mid-region (a
	// panic unwound past its Join) and is being reused; the load keeps the
	// common Init free of a locked store.
	if f.count.Load() != 0 {
		f.count.Store(0)
	}
	f.pending = 0
	f.owner = w
	f.depth = w.depth
}

// countStolen is the steal-time half of the join protocol (Listing 3): the
// deque runs it on a child a thief has just claimed, still inside the
// victim's deque lock, and it counts the child on its frame. Only deque
// entries reach it, and those always have a frame (roots travel through the
// ready list). It accepts every candidate; the restricted joins put their
// eligibility test in front of it.
func countStolen(t task) bool {
	t.frame.count.Add(1)
	return true
}

// childDone is called by the worker that just completed a stolen child of f
// — one countStolen counted; children the owner pops back never get here.
// When it completes the last stolen child of a *suspended* frame it retires
// in Listing 3's order (lines 68–75): its stack goes back to the pool (line
// 71), its goroutine is listed on the park lot, and only then is its worker
// slot delivered to the parked owner, so the owner's next suspend finds it
// listed. The caller then stops using the slot and waits on its hand-off
// (thiefLoop).
//
// The decrement is the caller's LAST touch of the frame unless it observes
// the suspend bit alone — the owner relies on that to recycle arena-backed
// frames immediately after Join observes a zero count. When the bit is
// observed the owner is parked on its hand-off and nobody else can reach the
// frame, so owner is read without a lock (Init wrote it before the first
// Fork; the steal that counted this child acquired it).
func (w *W) childDone(f *Frame) (handoff bool) {
	if f.count.Add(-1) != frameSuspended {
		return false // siblings remain, or the owner never suspended
	}
	// Last child of a suspended frame: clear the flag, retire, wake the owner.
	owner := f.owner
	f.count.Store(0)

	w.stats.resumes.Add(1)
	w.rt.trc.Emit(w.slot.id, trace.KindResume, int64(owner.stack.ID()), 0)
	w.rt.pool.Put(w.slot.id, w.stack)
	w.rt.park.list(w)
	owner.deliver(w.slot)
	return true
}

// suspend parks the calling goroutine until f's children complete,
// unmapping the unused pages of its stack first and handing its worker
// slot to a replacement thief. It returns false if the children finished
// before the suspension could be committed.
func (w *W) suspend(f *Frame) bool {
	rt := w.rt
	// Count the wait on the hand-off BEFORE committing the suspension: the
	// child that observes the suspend bit delivers at once. Failing with a
	// zero count means they all finished first — nobody saw the bit, so
	// nobody delivers; give the count back.
	w.sem.Add(1)
	for {
		c := f.count.Load()
		if c == 0 {
			w.sem.Done()
			return false
		}
		if f.count.CompareAndSwap(c, c|frameSuspended) {
			break
		}
	}

	w.stats.suspends.Add(1)
	rt.trc.Emit(w.slot.id, trace.KindSuspend, int64(w.stack.ID()), 0)

	// Return the unused portion of the suspended stack to the OS (Listing 3
	// line 63). It is safe after publishing the suspension: nobody touches
	// this stack until the hand-off delivers, and the pages below its top
	// stay mapped. They fault back in lazily after the resume.
	if rt.cfg.Strategy == StrategyFibril {
		freed := w.stack.UnmapAbove()
		w.stats.unmaps.Add(1)
		w.stats.unmappedPages.Add(int64(freed))
		rt.trc.Emit(w.slot.id, trace.KindUnmap, int64(freed), 0)
	}
	rt.pressure(w.slot.id, w.stats)

	// Join-wait time: how long this goroutine stays parked before the
	// last child's completion hands it a slot back. Timed only when a
	// sink consumes join-wait events.
	var parkedAt time.Time
	if rt.trc.Wants(trace.KindJoinWait) {
		parkedAt = time.Now()
	}
	// Hand the worker slot to a replacement thief so exactly P slots stay
	// busy (busy leaves): a listed goroutine, or a new one if none waits.
	// The replacement takes its stack from the pool, blocking there if a
	// bounded (Cilk Plus) pool is empty. The slot's shard and deque go with
	// it, so what this goroutine counted privately on the slot is folded in
	// first (the deque is empty here: the Pop that sent us to suspend
	// failed).
	w.flushCounts()
	rt.spawnThief(w.slot)
	// The finisher's slot is generally not the one given up above, and that
	// slot's new occupant is adding to its shard: follow the slot, so a
	// shard keeps one writer.
	w.slot = w.wait()
	w.stats = rt.shard(w.slot.id)
	if !parkedAt.IsZero() {
		rt.trc.Emit(w.slot.id, trace.KindJoinWait, int64(w.stack.ID()), time.Since(parkedAt))
	}
	return true
}
