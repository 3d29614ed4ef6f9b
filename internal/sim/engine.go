// Help-first (child-stealing) engine — the Go runtime's substitution for
// the paper's discipline (workfirst.go): a fork pushes the child and the
// parent runs on; a blocked join first runs its own deque inline.
package sim

import (
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/stack"
)

// pendingTask is a deque entry: a forked child awaiting execution.
type pendingTask struct {
	task   invoke.Task
	notify *frameSim // parent frame to decrement on completion
	depth  int32
}

// frameSim is the simulator's fibril_t: the per-task frame synchronizing
// forked children.
type frameSim struct {
	pending   int
	suspended bool
	fiber     *fiber // fiber to resume when the last child completes
	depth     int32
	parent    *frameSim // ancestry, for leapfrog eligibility
}

func (f *frameSim) isDescendantOf(a *frameSim) bool {
	for cur := f; cur != nil; cur = cur.parent {
		if cur == a {
			return true
		}
	}
	return false
}

// record is one activation record on a fiber: a task mid-execution.
type record struct {
	task   invoke.Task
	seg    int // current segment
	sub    int // 0 work, 1 call, 2 fork, 3 join / advance
	base   int // stack offset of this record's frame
	depth  int32
	frame  *frameSim // this task's own frame (children forked on it)
	notify *frameSim // frame to decrement when this task completes (nil = call)
}

// fiber is an execution context: a simulated stack plus its live records.
// It corresponds to a (goroutine, stack) pair of the real runtime.
type fiber struct {
	stack      *stack.Stack
	recs       []record
	lastFaults int64 // fault counter watermark for latency charging
}

// worker is one help-first worker: its slot, the fiber it runs (nil while
// it thieves) and its deque of forked children.
type worker struct {
	*slot
	fiber *fiber
	dq    deque[pendingTask]
}

// hfSim is the help-first engine over the shared skeleton.
type hfSim struct {
	*sim
	workers []worker
}

func (s *sim) run(tree invoke.Task) Result {
	hs := &hfSim{sim: s, workers: make([]worker, len(s.slots))}
	for i := range hs.workers {
		hs.workers[i].slot = &s.slots[i]
	}
	f := &fiber{stack: s.takeStack()}
	hs.workers[0].fiber = f
	hs.pushRecord(f, tree, nil, nil, 0)
	return s.drive(hs.step, "sim")
}

func (hs *hfSim) step(wid int, now int64) {
	w := &hs.workers[wid]
	if w.fiber == nil {
		hs.thieve(w, now)
		return
	}
	hs.advance(w, now)
}

// advance interprets the worker's fiber until it schedules a timed event,
// blocks, or completes.
func (hs *hfSim) advance(w *worker, now int64) {
	f := w.fiber
	for {
		r := &f.recs[len(f.recs)-1]
		if r.seg >= len(r.task.Segs) {
			// Implicit terminal join, then epilogue.
			if r.frame.pending > 0 {
				if !hs.blockJoin(w, now, f, r.frame) {
					return
				}
				continue
			}
			notify := r.notify
			f.stack.Pop(r.base)
			f.recs = f.recs[:len(f.recs)-1]
			if len(f.recs) == 0 {
				hs.fiberDone(w, now, f, notify)
				return
			}
			if notify != nil {
				inlineChildDone(notify)
			}
			continue
		}
		seg := &r.task.Segs[r.seg]
		switch r.sub {
		case 0: // serial work plus accrued overheads and fault latency
			r.sub = 1
			dur := seg.Work + w.over + hs.faultCost(f.stack, &f.lastFaults)
			w.over = 0
			if dur > 0 {
				hs.schedule(now+dur, w.id)
				return
			}
		case 1: // synchronous call
			r.sub = 2
			if seg.Call != nil {
				child := seg.Call()
				w.over += hs.cfg.Cost.TaskStart
				hs.pushRecord(f, child, nil, r.frame, r.depth+1)
				continue
			}
		case 2: // fork
			r.sub = 3
			if seg.Fork != nil {
				child := seg.Fork()
				r.frame.pending++
				w.dq.push(pendingTask{task: child, notify: r.frame, depth: r.depth + 1})
				w.over += hs.cfg.Cost.forkCost(hs.cfg.Strategy)
				hs.res.Forks++
			}
		case 3: // join, then next segment
			if seg.Join && r.frame.pending > 0 {
				if !hs.blockJoin(w, now, f, r.frame) {
					return
				}
				continue
			}
			r.seg++
			r.sub = 0
		}
	}
}

// pushRecord begins executing task on the fiber: push its simulated frame
// and activation record.
func (hs *hfSim) pushRecord(f *fiber, t invoke.Task, notify, parent *frameSim, depth int32) {
	f.recs = append(f.recs, record{
		task:   t,
		base:   hs.begin(f.stack, t),
		depth:  depth,
		frame:  &frameSim{depth: depth, parent: parent},
		notify: notify,
	})
}

// inlineChildDone handles completion of a task executed inline (popped
// from the own deque or inline-stolen). Its parent frame can never be
// suspended: locally popped tasks' parents live on this fiber's own active
// chain, and the inline-stealing strategies never suspend.
func inlineChildDone(fr *frameSim) {
	fr.pending--
	if fr.pending == 0 && fr.suspended {
		panic("sim: inline completion of a suspended frame's child")
	}
}

// blockJoin handles a join that cannot proceed. It returns true if the
// caller should keep advancing the fiber (a local or stolen task was
// pushed inline, or the join became satisfied), false if the fiber
// suspended or a retry was scheduled.
func (hs *hfSim) blockJoin(w *worker, now int64, f *fiber, fr *frameSim) bool {
	if fr.pending == 0 {
		return true
	}
	// Drain the worker's own deque inline first — all strategies do.
	if pt, ok := w.dq.pop(); ok {
		w.over += hs.cfg.Cost.TaskStart
		hs.pushRecord(f, pt.task, pt.notify, pt.notify, pt.depth)
		return true
	}
	switch hs.cfg.Strategy {
	case core.StrategyTBB:
		return hs.inlineSteal(w, now, f, func(pt pendingTask) bool {
			return pt.depth > fr.depth
		})
	case StrategyLeapfrog:
		return hs.inlineSteal(w, now, f, func(pt pendingTask) bool {
			return pt.notify.isDescendantOf(fr)
		})
	default:
		hs.suspendFiber(w, now, f, fr)
		return false
	}
}

// inlineSteal is the TBB/leapfrog blocked join: steal an eligible deeper
// task and run it on top of the current stack, or schedule a retry.
func (hs *hfSim) inlineSteal(w *worker, now int64, f *fiber, eligible func(pendingTask) bool) bool {
	cost, pt, ok := hs.steal(w, eligible)
	if ok {
		w.over += cost + hs.cfg.Cost.TaskStart
		hs.pushRecord(f, pt.task, pt.notify, pt.notify, pt.depth)
		return true
	}
	hs.schedule(now+cost, w.id)
	return false
}

// steal is the skeleton's sweep over the help-first deques.
func (hs *hfSim) steal(w *worker, eligible func(pendingTask) bool) (int64, pendingTask, bool) {
	return stealSweep(hs.sim, w.slot, func(v int) *deque[pendingTask] { return &hs.workers[v].dq }, eligible)
}

// suspendFiber is Listing 3's suspension path: publish the suspension,
// return the unused pages of the stack per the strategy, and turn the
// worker into a thief.
func (hs *hfSim) suspendFiber(w *worker, now int64, f *fiber, fr *frameSim) {
	fr.suspended = true
	fr.fiber = f
	hs.res.Suspends++
	cost := hs.cfg.Cost.Suspend
	cost += hs.unmap(now+cost, f.stack)
	w.fiber = nil
	hs.schedule(now+cost, w.id)
}

// fiberDone retires a completed fiber: its stack returns to the pool and
// its root task's parent frame is notified, possibly resuming a suspended
// fiber on this worker (the slot handoff of the real runtime).
func (hs *hfSim) fiberDone(w *worker, now int64, f *fiber, notify *frameSim) {
	hs.releaseStack(now, f.stack)
	w.fiber = nil
	if notify == nil {
		hs.done = true
		hs.makespan = now
		return
	}
	notify.pending--
	if notify.pending == 0 && notify.suspended {
		notify.suspended = false
		rf := notify.fiber
		notify.fiber = nil
		w.fiber = rf
		hs.res.Resumes++
		cost := hs.cfg.Cost.Resume
		cost += hs.remap(now+cost, rf.stack)
		hs.schedule(now+cost, w.id)
		return
	}
	hs.schedule(now, w.id) // become a thief immediately
}

// thieve is an idle worker's turn: past the skeleton's prelude, sweep for
// a steal and run the stolen task on a fresh fiber.
func (hs *hfSim) thieve(w *worker, now int64) {
	if !hs.idle(w.slot) {
		return
	}
	cost, pt, ok := hs.steal(w, nil)
	if ok {
		f := &fiber{stack: hs.takeStack()}
		w.fiber = f
		w.over += hs.cfg.Cost.TaskStart
		hs.pushRecord(f, pt.task, pt.notify, pt.notify, pt.depth)
	}
	hs.schedule(now+cost, w.id)
}
