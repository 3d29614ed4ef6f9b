package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"fibril/internal/cacheline"
	"fibril/internal/stack"
	"fibril/internal/trace"
)

// W is a worker context: the handle through which application code forks,
// calls, and joins. One W belongs to one goroutine for that goroutine's
// lifetime; the worker *slot* behind it migrates across suspensions, which
// is why tasks receive a *W rather than a worker id, and so does its stack
// when the goroutine leaves a slot and is given another (thiefLoop).
//
// A goroutine without a slot — suspended in a Join, or listed on the park
// lot after it parked or handed its slot to a resumed parent — waits on its
// W's hand-off (sem, next) for another to deliver to it, which writes those
// two and may read stack. Otherwise only its own goroutine reads or writes a
// W, and it writes depth and frame around every task. Ws are allocated one
// per goroutine, so without the outer pads two goroutines' Ws sit side by
// side in one size class.
type W struct {
	_ cacheline.Pad

	rt    *Runtime
	slot  *worker       // current worker slot
	stack *stack.Stack  // this goroutine's simulated stack
	stats *counterShard // the current slot's counter shard; re-bound with slot

	depth int32  // current invocation depth
	frame *Frame // frame of the task currently executing (nil at root)

	sem  sync.WaitGroup // the hand-off: one wait, counted before the slot is given up
	next *worker        // the slot delivered on sem; nil means exit

	// The per-fork counters, kept as plain integers here and folded into
	// the slot's shard by flushCounts, so a fork/call/join node adds to no
	// shared word. A live Stats() therefore lags this goroutine by at most
	// countFlushForks forks; at quiescence it is exact.
	forks, calls, arenaAcquires, arenaReleases int64

	// Hot Config fields cached at W creation (see Runtime.newW), so the
	// fork fast path touches only this cache line: the default frame size,
	// the strategy, whether any sink consumes KindFork (so the untraced path
	// skips the Emit call entirely), and what the spawn prologue of the Cilk
	// Plus and TBB baselines writes — nil under every other strategy.
	frameBytes int
	strategy   Strategy
	wantsFork  bool
	spawn      *spawnState

	_ cacheline.Pad
}

// Runtime returns the runtime this context executes on.
func (w *W) Runtime() *Runtime { return w.rt }

// Depth returns the current invocation depth.
func (w *W) Depth() int { return int(w.depth) }

// StackID identifies the simulated stack the goroutine runs on.
func (w *W) StackID() int { return w.stack.ID() }

// deliver gives slot to w's goroutine, waiting for it in wait; nil means
// exit.
func (w *W) deliver(slot *worker) {
	w.next = slot
	w.sem.Done()
}

// wait returns the slot delivered on sem; nil at once if no wait was counted.
func (w *W) wait() *worker {
	w.sem.Wait()
	slot := w.next
	w.next = nil
	return slot
}

// countFlushForks bounds how many forks a W counts privately before folding
// them into its slot's shard, so a Stats() taken while a long unstolen root
// runs shows progress instead of zero.
const countFlushForks = 4096

// flushCounts folds the private per-fork counters into the current slot's
// shard. It runs wherever the shard is about to be read for an exact answer
// or is about to change hands — at the end of every base-level task, before
// the completion that lets a joiner or a waiter proceed, and before a suspend
// gives the slot to a replacement thief — and every countFlushForks forks in
// between. Every fork a goroutine counts happens inside a base-level task, so
// a thief that retires between tasks has nothing to fold.
func (w *W) flushCounts() {
	sh := w.stats
	if w.forks != 0 {
		sh.forks.Add(w.forks)
		w.forks = 0
	}
	if w.calls != 0 {
		sh.calls.Add(w.calls)
		w.calls = 0
	}
	if w.arenaAcquires != 0 {
		sh.arenaAcquires.Add(w.arenaAcquires)
		w.arenaAcquires = 0
	}
	if w.arenaReleases != 0 {
		sh.arenaReleases.Add(w.arenaReleases)
		w.arenaReleases = 0
	}
}

// drain runs what the task this goroutine just executed left on the slot's
// deque: children a panic unwound past the Join of. Nobody waits on their
// frame and a thief's sweep skips its own deque, so whoever ran the task runs
// them, before the completion that lets a joiner or a waiter proceed
// (childDone, completeJob). A goroutine therefore leaves a deque empty when
// it stops operating on it — after a base-level task, behind a task a
// restricted join stole and ran inline, and in suspend, which a failed Pop
// precedes. The entries are published first, so thieves can help; a popped
// child was never counted on its frame, so finishing it notifies nobody; and
// a drained child may suspend and resume this goroutine on another slot (left
// empty by its last occupant), so the slot is read afresh every time.
//
// slot and bot are the slot and its deque's Bottom from before the task ran,
// when the deque was empty. On the same slot with the bottom where it was
// nothing is left, which is all this costs a task none of whose children was
// stolen or abandoned: two plain loads of the owner's own line. Otherwise
// only a Pop says empty — it takes the deque lock before it fails, which also
// orders it after a restricted join's claim that may yet be put back.
func (w *W) drain(slot *worker, bot int64) {
	if w.slot == slot && slot.deque.Bottom() == bot {
		return
	}
	var t task
	for {
		d := w.slot.deque
		w.rt.handOff(d.Publish())
		republished, ok := d.PopRepublish(&t)
		if !ok {
			return // thieves took the rest, and run what they took
		}
		w.rt.handOff(republished)
		w.exec(&t)
	}
}

// countFork is the bookkeeping shared by every fork: the frame's private
// child tally and the worker's private fork count — no atomic.
func (w *W) countFork(f *Frame) {
	f.pending++
	w.forks++
	if w.forks >= countFlushForks {
		w.flushCounts()
	}
}

// Fork logically starts fn as a child task of frame f, running in parallel
// with the caller (fibril_fork). The child is pushed on the worker's deque
// where thieves can steal it; unstolen children execute during Join in the
// order work-first execution would have run them. The child's simulated
// activation frame uses the configured default size; use ForkSized to
// model a specific frame size.
func (w *W) Fork(f *Frame, fn func(*W)) {
	w.ForkSized(f, w.frameBytes, fn)
}

// ForkSized is Fork with an explicit simulated activation-frame size in
// bytes for the child.
func (w *W) ForkSized(f *Frame, bytes int, fn func(*W)) {
	w.ForkArgSized(f, bytes, runClosure, closureArg(fn))
}

// ForkArg forks fn with an argument pointer instead of a closure — the
// zero-allocation fork: the (code pointer, argument pointer) pair travels
// through the deque by value, so the steady-state fast path performs no
// heap allocation at all. arg must stay valid (and, if it holds the only
// reference to a heap object, reachable) until the child completes; frames
// and argument blocks recycled through AcquireScratch/ReleaseScratch
// satisfy this by construction. The type-safe wrapper is fibril.ForkOf.
func (w *W) ForkArg(f *Frame, fn func(*W, unsafe.Pointer), arg unsafe.Pointer) {
	w.ForkArgSized(f, w.frameBytes, fn, arg)
}

// ForkArgSized is ForkArg with an explicit simulated activation-frame size
// in bytes for the child. It is the one fork body: every other Fork lands
// here.
//
// The child is built in its ring slot and goes on the slot's deque lazily: it
// is published only if a probing thief would otherwise find nothing, so a
// fork made while every worker slot is busy stores to no shared word. Then —
// after the push, the publisher's half of the park lot's Dekker pair — one
// atomic load of the idle-slot count: while any slot's occupant is without a
// task — the slot free, given to a goroutine not yet run, or searching —
// every Fork publishes what it holds and gives out a free slot per entry, so
// exactly P slots stay runnable whenever work exists (busy leaves), a Fork
// made with a slot free is stealable on return, and an owner descheduled
// among hungry thieves leaves them its whole deque, not one task. A Fork
// that woke a goroutine yields its P to it (Runtime.handOff), so it starts
// the child now rather than
// when this goroutine next blocks. With nobody idle there is nobody to
// publish for: a worker that runs out of work later sweeps after this push,
// and finds this deque's public part non-empty unless another has emptied it
// since — then this goroutine's next Fork or Pop republishes and wakes (Join).
func (w *W) ForkArgSized(f *Frame, bytes int, fn func(*W, unsafe.Pointer), arg unsafe.Pointer) {
	if uint(bytes) > math.MaxInt32 {
		panic(fmt.Sprintf("core: forked frame size %d is negative or does not fit the task record's int32", bytes))
	}
	w.countFork(f)
	if w.wantsFork {
		w.rt.trc.Emit(w.slot.id, trace.KindFork, int64(w.depth), 0)
	}
	if w.spawn != nil {
		w.spawnPrologue(f, bytes)
	}
	d := w.slot.deque
	t := d.Slot()
	t.fn, t.arg, t.frame, t.bytes, t.depth = fn, arg, f, int32(bytes), w.depth+1
	n := d.PushSlot()
	if w.rt.park.nidle.Load() != 0 {
		w.rt.handOff(n + d.Publish())
	}
}

// spawnPrologue is the spawn prologue of the strategies for which it is
// deliberately expensive — that expense being what Figure 3 measures: Cilk
// Plus's full stack frame and TBB's heap-allocated task object. It is kept
// out of line so that the fork body holds none of its locked instructions.
//
//go:noinline
func (w *W) spawnPrologue(f *Frame, bytes int) {
	switch w.strategy {
	case StrategyCilkPlus:
		// Cilk Plus's spawn prologue maintains a full __cilkrts_stack_frame
		// (flags, parent links, pedigree) beyond what Fibril's three saved
		// registers need. Model it as extra stores the compiler cannot
		// remove plus one extra synchronizing operation.
		for i := range w.spawn.frame {
			w.spawn.frame[i] = uint64(bytes) + uint64(i)
		}
	case StrategyTBB:
		// TBB allocates a task object per spawn and manipulates its
		// reference count through the scheduler — the heaviest fork path
		// in the comparison (Figure 3). Storing it is what sends it to the
		// heap.
		h := &tbbTask{parent: f, depth: w.depth + 1}
		h.refcount.Store(1)
		h.refcount.Add(1)
		w.spawn.task = h
	}
	w.stats.spawnOverhead.Add(1)
}

// ShouldSplit reports whether publishing more parallelism right now could
// feed an otherwise-idle worker: the public part of the slot's deque looks
// empty (any probing thief leaves hungry, whatever the owner still holds
// privately — its next Fork publishes that too) or at least one slot is
// free on the park lot, given back by a thief that parked for lack of work.
// A thief still in its search phase holds its slot; it is visible through
// LazyHint only, which is enough, since an empty public part is what it
// keeps finding. It is the steal-driven probe behind lazy loop
// splitting — a loop body checks it between serial chunks and forks only on
// true, so a saturated system runs tight serial loops while an idle one
// splits eagerly.
// The answer is a racy hint, never a correctness condition.
func (w *W) ShouldSplit() bool {
	return w.slot.deque.LazyHint() || w.rt.park.nfree.Load() > 0
}

// Call runs fn synchronously as a plain function call with a simulated
// activation frame of the configured default size — the serial-parallel
// reciprocity path: any code, including "serial" callbacks, may call into
// or out of parallel code freely (§1, §4.1).
func (w *W) Call(fn func(*W)) {
	w.CallSized(w.frameBytes, fn)
}

// CallSized is Call with an explicit frame size in bytes. Panics propagate
// to the caller, as in a plain function call, with the simulated frame
// popped on the way out.
func (w *W) CallSized(bytes int, fn func(*W)) {
	w.CallArgSized(bytes, runClosure, closureArg(fn))
}

// CallArg is Call for a (code pointer, argument pointer) pair — the serial
// spine of ForkArg-based code, allocation-free like its fork counterpart.
func (w *W) CallArg(fn func(*W, unsafe.Pointer), arg unsafe.Pointer) {
	w.CallArgSized(w.frameBytes, fn, arg)
}

// CallArgSized is CallArg with an explicit frame size in bytes. It is the
// one call body.
func (w *W) CallArgSized(bytes int, fn func(*W, unsafe.Pointer), arg unsafe.Pointer) {
	w.calls++
	base := w.stack.Bytes()
	w.stack.Enter(bytes)
	w.depth++
	defer func() {
		w.depth--
		w.stack.Pop(base)
	}()
	fn(w, arg)
}

// Alloca grows the current simulated frame by n bytes (touching any new
// pages) and returns a release function, modelling variable-size frames.
func (w *W) Alloca(n int) (release func()) {
	base := w.stack.Bytes()
	w.stack.Enter(n)
	return func() { w.stack.Pop(base) }
}

// Join waits until every child forked on f has completed (fibril_join).
// If any child panicked, Join re-raises the first such panic as a
// *TaskPanic — the C-elision point where the panic would have surfaced.
// See the package comment for the per-strategy blocked-join behaviour.
//
// The owner's half of every join is the loop in here, the only frame between
// a parent's body and the body of a child it runs inline. While f may still
// have children in our own deque it pops and runs them — the order work-first
// execution would have run them in — touching no shared counter: a child the
// owner pops back was never counted on the frame. A popped task of another
// frame (an enclosing region's child, or one left behind by a frame a panic
// abandoned) is run the same way and leaves f.pending alone.
//
// A Pop that took a private entry and found the public part dry — a thief
// has been here since this goroutine last looked — republishes what is left
// and says how many entries that was; a free slot is given out for each, so
// none stays free past this worker's next deque operation while it holds
// work.
//
// The first Pop that fails settles f.pending to zero. A failing Pop takes
// the deque lock, so it is ordered after every steal that completed before
// it, and it leaves the deque empty, private region included: every child of
// f this goroutine pushed here has by then run on this stack or been counted
// on f.count by its thief. That holds on whichever slot the goroutine
// occupies — it only ever left a slot by suspending, which is to say after a
// failed Pop there too, and the slot it resumed on was handed over empty
// (drain). Then f is done unless a stolen child is still running, which is
// joinBlocked's business.
//
// One deferred recover covers the region, not each child: it is installed
// only when there is something to drain, and does anything only if a child's
// body was running when it fired (childPanicked).
func (w *W) Join(f *Frame) {
	if f.pending != 0 {
		depth, frame, top := w.depth, w.frame, w.stack.Bytes()
		var t task
		running := false
		defer func() {
			if running {
				w.childPanicked(f, t.frame, recover(), depth, frame, top)
			}
		}()
		for {
			for f.pending > 0 {
				republished, ok := w.slot.deque.PopRepublish(&t)
				if !ok {
					f.pending = 0
					break
				}
				if republished > 0 {
					w.rt.handOff(republished)
				}
				if t.frame == f {
					f.pending--
				}
				// exec's prologue and epilogue, in line. An overflow in
				// Enter is this task's panic, not the child's.
				w.stack.Enter(int(t.bytes))
				w.depth, w.frame = t.depth, t.frame
				running = true
				t.fn(w, t.arg)
				running = false
				w.depth, w.frame = depth, frame
				w.stack.Pop(top)
			}
			if f.count.Load() == 0 || w.joinBlocked(f) {
				break
			}
		}
	}
	if tp := f.panicked.Load(); tp != nil {
		f.panicked.Store(nil)
		panic(tp)
	}
}

// childPanicked is the panic path of Join's drain: the body of a child of
// frame child, popped by Join(f), unwound into Join's deferred function,
// which recovered v. The bookkeeping goes back to what it was when Join was
// entered, the panic is recorded on the child's own frame — the first failure
// wins; a nil v is a Goexit passing through — and Join is entered again, so
// every remaining sibling runs before f's first failure is re-raised there.
func (w *W) childPanicked(f, child *Frame, v any, depth int32, frame *Frame, top int) {
	w.depth, w.frame = depth, frame
	w.stack.Pop(top)
	if v == nil {
		return
	}
	child.panicked.CompareAndSwap(nil, capture(v))
	w.Join(f)
}

// joinBlocked is one step of a Join whose own deque is empty while stolen
// children of f still run; Join drains again after every step. It reports
// whether f is known to be done.
//
// The Fibril / Cilk Plus join suspends: it parks until the last thief
// finishes and hands it a slot, and is done when it wakes. suspend reports
// false when the thieves finished in the race window: the count is zero.
//
// The TBB join never parks: it steals work strictly deeper than f and runs
// it inline on its own stack. This keeps the worker on one stack (no
// suspension, no extra stacks) at the cost of the time bound (§3, Sukha's
// lower bound). The depth test has countStolen behind it: an inline steal is
// a steal, counted on the stolen child's frame under the victim's lock and
// uncounted when it has run. The closure over f is built here, where the
// common join never comes.
//
//go:noinline
func (w *W) joinBlocked(f *Frame) (done bool) {
	if w.strategy != StrategyTBB {
		return w.suspend(f)
	}
	t, ok := w.rt.steal(w, func(t task) bool { return t.depth > f.depth && countStolen(t) })
	if !ok {
		runtime.Gosched()
		return false
	}
	w.stats.restrictedSteals.Add(1)
	slot, bot := w.slot, w.slot.deque.Bottom()
	w.exec(&t)
	w.drain(slot, bot) // what t forked and a panic left unjoined
	if w.childDone(t.frame) {
		panic("core: inline task completion triggered a slot handoff")
	}
	return false
}

// exec pushes the task's simulated frame, runs its body with depth/frame
// context switched, and pops the frame — for a task that is not its parent's
// Join's to run: a root, a stolen child, one a panic left behind (drain). A
// panic escaping the task body is captured on the parent frame (re-raised at
// its Join); for a root task (no parent frame) it is captured on the task's
// Job's err, surfacing through Job.Err without disturbing sibling jobs. Bookkeeping
// is restored either way, so the worker survives.
func (w *W) exec(t *task) {
	base := w.stack.Bytes()
	w.stack.Enter(int(t.bytes))
	prevDepth, prevFrame := w.depth, w.frame
	w.depth, w.frame = t.depth, t.frame
	defer func() {
		w.depth, w.frame = prevDepth, prevFrame
		w.stack.Pop(base)
		if v := recover(); v != nil {
			tp := capture(v)
			if t.frame != nil {
				t.frame.panicked.CompareAndSwap(nil, tp) // the first failure wins
			} else {
				(*Job)(t.arg).err = tp
			}
		}
	}()
	t.fn(w, t.arg)
}

// runRoot executes an admitted root task — a submitted Job. A root has no
// parent frame and no cactus link: its frames grow from the base of the
// executing worker's own stack. Roots emit job-lifecycle events rather
// than KindTaskStart/KindTaskEnd, which stay reserved for stolen tasks so
// the trace-reconciliation law (task events == base steals) survives
// concurrent submission. The root may itself suspend at a Join — the slot
// migrates exactly as for any other task — and when exec returns, this
// goroutine (on whatever slot it now holds) completes the Job.
func (w *W) runRoot(t task) {
	j := (*Job)(t.arg)
	w.rt.trc.Emit(w.slot.id, trace.KindJobStart, int64(j.id), 0)
	slot, bot := w.slot, w.slot.deque.Bottom()
	w.exec(&t)
	w.drain(slot, bot)
	w.flushCounts()
	w.rt.completeJob(w.slot.id, j)
}

// runStolen executes a task taken by a base-level thief: a submitted root
// (dispatched through runRoot), or a stolen child — execute it on the
// thief's stack (a cactus branch: t.frame, the frame it was forked on, lives
// on the victim's stack) and notify the parent. It reports whether that
// notification handed the slot to a resumed parent, so the thief loop
// retires.
func (w *W) runStolen(t task) (released bool) {
	if t.frame == nil {
		w.runRoot(t)
		return false
	}
	w.rt.trc.Emit(w.slot.id, trace.KindTaskStart, int64(t.depth), 0)
	// Stolen-task run time: measured only when a sink consumes task-end
	// events, so untraced runs skip both clock reads.
	var t0 time.Time
	if w.rt.trc.Wants(trace.KindTaskEnd) {
		t0 = time.Now()
	}
	slot, bot := w.slot, w.slot.deque.Bottom()
	w.exec(&t)
	var ran time.Duration
	if !t0.IsZero() {
		ran = time.Since(t0)
	}
	w.rt.trc.Emit(w.slot.id, trace.KindTaskEnd, int64(t.depth), ran)
	w.drain(slot, bot)
	w.flushCounts()
	return w.childDone(t.frame)
}
