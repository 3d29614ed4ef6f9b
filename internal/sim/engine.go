package sim

import (
	"container/heap"
	"fmt"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/stack"
	"fibril/internal/vm"
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

// worker is one simulated worker slot.
type worker struct {
	id     int
	fiber  *fiber
	deque  []pendingTask
	rng    uint64
	parked bool  // waiting for a bounded pool's stack
	over   int64 // accrued overhead charged with the next work event
	// lastVictim is the slot of the last successful steal (-1 none): a
	// repeat steal from it is charged the warm rather than the cold cache
	// surcharge. misses counts consecutive failed full sweeps; after
	// simVictimPatience of them the victim's lines count as cold again.
	// This is cost accounting only: internal/core has kept no per-worker
	// anchor since its locality steal policies were removed, and the sweep
	// below never consults this one to pick a victim.
	lastVictim int
	misses     int
}

// deque operations: owner end is the back, thief end is the front.
func (w *worker) pushBottom(t pendingTask) { w.deque = append(w.deque, t) }

func (w *worker) popBottom() (pendingTask, bool) {
	n := len(w.deque)
	if n == 0 {
		return pendingTask{}, false
	}
	t := w.deque[n-1]
	w.deque[n-1] = pendingTask{}
	w.deque = w.deque[:n-1]
	return t, true
}

func (w *worker) stealTop(eligible func(pendingTask) bool) (pendingTask, bool) {
	if len(w.deque) == 0 {
		return pendingTask{}, false
	}
	t := w.deque[0]
	if eligible != nil && !eligible(t) {
		return pendingTask{}, false
	}
	w.deque[0] = pendingTask{}
	w.deque = w.deque[1:]
	return t, true
}

type sim struct {
	cfg Config
	as  *vm.AddressSpace

	workers []*worker
	eq      eventQueue
	seq     int64

	// stack pool
	freeStacks []*stack.Stack
	created    int
	inUse      int
	maxInUse   int
	waiters    []int

	mmapLockFree int64 // time the serialized address-space lock frees up

	done     bool
	makespan int64
	res      Result
}

func newSim(cfg Config) *sim {
	s := &sim{cfg: cfg, as: vm.NewAddressSpace()}
	s.workers = make([]*worker, cfg.Workers)
	for i := range s.workers {
		s.workers[i] = &worker{id: i, rng: cfg.Seed + uint64(i)*0x9E3779B9, lastVictim: -1}
	}
	return s
}

func (s *sim) schedule(t int64, wid int) {
	s.seq++
	heap.Push(&s.eq, event{t: t, seq: s.seq, w: wid})
}

func (s *sim) run(tree invoke.Task) Result {
	w0 := s.workers[0]
	f := &fiber{stack: s.takeStack()}
	w0.fiber = f
	s.pushRecord(w0, f, tree, nil, nil, 0)
	return s.drive(s.step, "sim")
}

func (s *sim) step(wid int, now int64) {
	w := s.workers[wid]
	if w.parked {
		return // stale event; the worker is waiting on the stack pool
	}
	if w.fiber == nil {
		s.thieve(w, now)
		return
	}
	s.advance(w, now)
}

// advance interprets the worker's fiber until it schedules a timed event,
// blocks, or completes.
func (s *sim) advance(w *worker, now int64) {
	f := w.fiber
	for {
		r := &f.recs[len(f.recs)-1]
		if r.seg >= len(r.task.Segs) {
			// Implicit terminal join, then epilogue.
			if r.frame.pending > 0 {
				if !s.blockJoin(w, now, f, r.frame) {
					return
				}
				continue
			}
			notify := r.notify
			f.stack.Pop(r.base)
			f.recs = f.recs[:len(f.recs)-1]
			if len(f.recs) == 0 {
				s.fiberDone(w, now, f, notify)
				return
			}
			if notify != nil {
				s.inlineChildDone(notify)
			}
			continue
		}
		seg := &r.task.Segs[r.seg]
		switch r.sub {
		case 0: // serial work plus accrued overheads and fault latency
			r.sub = 1
			dur := seg.Work + w.over + s.takeFaultCost(f)
			w.over = 0
			if dur > 0 {
				s.schedule(now+dur, w.id)
				return
			}
		case 1: // synchronous call
			r.sub = 2
			if seg.Call != nil {
				child := seg.Call()
				w.over += s.cfg.Cost.TaskStart
				s.pushRecord(w, f, child, nil, r.frame, r.depth+1)
				continue
			}
		case 2: // fork
			r.sub = 3
			if seg.Fork != nil {
				child := seg.Fork()
				r.frame.pending++
				w.pushBottom(pendingTask{task: child, notify: r.frame, depth: r.depth + 1})
				w.over += s.cfg.Cost.forkCost(s.cfg.Strategy)
				s.res.Forks++
			}
		case 3: // join, then next segment
			if seg.Join && r.frame.pending > 0 {
				if !s.blockJoin(w, now, f, r.frame) {
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
func (s *sim) pushRecord(w *worker, f *fiber, t invoke.Task, notify, parent *frameSim, depth int32) {
	base, err := f.stack.Push(t.Frame)
	if err != nil {
		panic(fmt.Sprintf("sim: %s strategy overflowed a %d-page stack at depth %d: %v",
			StrategyName(s.cfg.Strategy), f.stack.Capacity(), len(f.recs), err))
	}
	f.recs = append(f.recs, record{
		task:   t,
		base:   base,
		depth:  depth,
		frame:  &frameSim{depth: depth, parent: parent},
		notify: notify,
	})
	s.res.Tasks++
	if s.cfg.OnTask != nil {
		s.cfg.OnTask(t)
	}
}

// takeFaultCost charges the latency of page faults taken since the last
// check on this fiber's stack.
func (s *sim) takeFaultCost(f *fiber) int64 {
	cur := f.stack.Faults()
	d := cur - f.lastFaults
	f.lastFaults = cur
	return d * s.cfg.Cost.PageFault
}

// inlineChildDone handles completion of a task executed inline (popped
// from the own deque or inline-stolen). Its parent frame can never be
// suspended: locally popped tasks' parents live on this fiber's own active
// chain, and the inline-stealing strategies never suspend.
func (s *sim) inlineChildDone(fr *frameSim) {
	fr.pending--
	if fr.pending == 0 && fr.suspended {
		panic("sim: inline completion of a suspended frame's child")
	}
}

// blockJoin handles a join that cannot proceed. It returns true if the
// caller should keep advancing the fiber (a local or stolen task was
// pushed inline, or the join became satisfied), false if the fiber
// suspended or a retry was scheduled.
func (s *sim) blockJoin(w *worker, now int64, f *fiber, fr *frameSim) bool {
	if fr.pending == 0 {
		return true
	}
	// Drain the worker's own deque inline first — all strategies do.
	if pt, ok := w.popBottom(); ok {
		w.over += s.cfg.Cost.TaskStart
		s.pushRecord(w, f, pt.task, pt.notify, pt.notify, pt.depth)
		return true
	}
	switch s.cfg.Strategy {
	case core.StrategyTBB:
		return s.inlineSteal(w, now, f, func(pt pendingTask) bool {
			return pt.depth > fr.depth
		})
	case StrategyLeapfrog:
		return s.inlineSteal(w, now, f, func(pt pendingTask) bool {
			return pt.notify.isDescendantOf(fr)
		})
	default:
		s.suspendFiber(w, now, f, fr)
		return false
	}
}

// inlineSteal is the TBB/leapfrog blocked join: steal an eligible deeper
// task and run it on top of the current stack, or schedule a retry.
func (s *sim) inlineSteal(w *worker, now int64, f *fiber, eligible func(pendingTask) bool) bool {
	cost, pt, ok := s.stealSweep(w, eligible)
	if ok {
		w.over += cost + s.cfg.Cost.TaskStart
		s.pushRecord(w, f, pt.task, pt.notify, pt.notify, pt.depth)
		return true
	}
	s.schedule(now+cost, w.id)
	return false
}

// simVictimPatience is how many consecutive failed sweeps make the last
// victim cold again: simulated thieves never park and a failed sweep here
// is a whole charged event, so a count of them stands in for an idle
// episode long enough to lose the victim's lines.
const simVictimPatience = 2

// ringDist is the distance between worker slots i and j on the ring of n
// slots — the simulator's stand-in for topological distance (adjacent
// slots share cache; far slots cross the interconnect).
func ringDist(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}

// stealCost is a successful steal's total charge for w robbing victim: the
// handshake, plus the warm surcharge when the victim repeats (its lines
// are still flowing to this thief) or the cold-cache refill when it does
// not, plus the topological distance term.
func (s *sim) stealCost(w, victim *worker) int64 {
	c := s.cfg.Cost.Steal
	if victim.id == w.lastVictim {
		c += s.cfg.Cost.StealWarm
	} else {
		c += s.cfg.Cost.StealCold
	}
	return c + int64(ringDist(w.id, victim.id, len(s.workers)))*s.cfg.Cost.NearHop
}

// stealSweep probes every worker once, round-robin from a random start
// (the paper's random_steal, the victim rule internal/core uses too). It
// returns the accumulated probe cost, and the stolen task if any probe
// succeeded.
func (s *sim) stealSweep(w *worker, eligible func(pendingTask) bool) (int64, pendingTask, bool) {
	n := len(s.workers)
	var cost int64
	start := int(xorshift(&w.rng) % uint64(n))
	for i := 0; i < n; i++ {
		victim := s.workers[(start+i)%n]
		s.res.StealAttempts++
		if pt, ok := victim.stealTop(eligible); ok {
			s.res.Steals++
			if victim.id == w.lastVictim {
				s.res.WarmSteals++
			} else {
				s.res.ColdSteals++
			}
			cost += s.stealCost(w, victim)
			w.lastVictim = victim.id
			w.misses = 0
			return cost, pt, true
		}
		cost += s.cfg.Cost.StealProbe
	}
	w.misses++
	if w.misses >= simVictimPatience {
		w.lastVictim = -1
		w.misses = 0
	}
	return cost, pendingTask{}, false
}

// suspendFiber is Listing 3's suspension path: publish the suspension,
// return the unused pages of the stack per the strategy, and turn the
// worker into a thief.
func (s *sim) suspendFiber(w *worker, now int64, f *fiber, fr *frameSim) {
	fr.suspended = true
	fr.fiber = f
	s.res.Suspends++
	cost := s.cfg.Cost.Suspend
	switch s.cfg.Strategy {
	case core.StrategyFibril:
		freed := f.stack.UnmapAbove()
		s.res.Unmaps++
		s.res.UnmappedPages += int64(freed)
		cost += s.cfg.Cost.MadviseBase + int64(freed)*s.cfg.Cost.UnmapPerPage
	case StrategyFibrilMMap:
		freed := f.stack.MapDummyAbove()
		s.res.Unmaps++
		s.res.UnmappedPages += int64(freed)
		cost += s.serializedMMap(now+cost, int64(freed))
	}
	w.fiber = nil
	s.schedule(now+cost, w.id)
}

// serializedMMap models an address-space mutation that must hold the
// per-process lock: the caller waits for the lock, then holds it for the
// syscall's duration. It returns the caller's total extra latency.
func (s *sim) serializedMMap(ready int64, pages int64) int64 {
	start := ready
	if s.mmapLockFree > start {
		start = s.mmapLockFree
	}
	hold := s.cfg.Cost.MMapBase + pages*s.cfg.Cost.UnmapPerPage
	s.mmapLockFree = start + hold
	return (start + hold) - ready
}

// fiberDone retires a completed fiber: its stack returns to the pool and
// its root task's parent frame is notified, possibly resuming a suspended
// fiber on this worker (the slot handoff of the real runtime).
func (s *sim) fiberDone(w *worker, now int64, f *fiber, notify *frameSim) {
	s.releaseStack(now, f.stack)
	w.fiber = nil
	if notify == nil {
		s.done = true
		s.makespan = now
		return
	}
	notify.pending--
	if notify.pending == 0 && notify.suspended {
		notify.suspended = false
		rf := notify.fiber
		notify.fiber = nil
		w.fiber = rf
		s.res.Resumes++
		cost := s.cfg.Cost.Resume
		if s.cfg.Strategy == StrategyFibrilMMap {
			rf.stack.RemapAbove()
			cost += s.serializedMMap(now+cost, int64(rf.stack.Capacity()-rf.stack.Pages()))
		}
		s.schedule(now+cost, w.id)
		return
	}
	s.schedule(now, w.id) // become a thief immediately
}

// thieve is an idle worker's turn: acquire a stack (bounded pools may park
// the worker — the Cilk Plus stall), then sweep for a steal.
func (s *sim) thieve(w *worker, now int64) {
	if s.done {
		return
	}
	if !s.stackAvailable() {
		w.parked = true
		s.waiters = append(s.waiters, w.id)
		s.res.PoolStalls++
		return
	}
	cost, pt, ok := s.stealSweep(w, nil)
	if !ok {
		s.schedule(now+cost, w.id)
		return
	}
	f := &fiber{stack: s.takeStack()}
	w.fiber = f
	w.over += s.cfg.Cost.TaskStart
	s.pushRecord(w, f, pt.task, pt.notify, pt.notify, pt.depth)
	s.schedule(now+cost, w.id)
}

// --- stack pool ---

func (s *sim) stackAvailable() bool {
	return len(s.freeStacks) > 0 || s.cfg.StackLimit == 0 || s.created < s.cfg.StackLimit
}

func (s *sim) takeStack() *stack.Stack {
	var st *stack.Stack
	if n := len(s.freeStacks); n > 0 {
		st = s.freeStacks[n-1]
		s.freeStacks = s.freeStacks[:n-1]
	} else {
		s.created++
		var err error
		st, err = stack.New(s.as, s.cfg.StackPages, s.created)
		if err != nil {
			panic("sim: cannot map stack: " + err.Error())
		}
	}
	s.inUse++
	if s.inUse > s.maxInUse {
		s.maxInUse = s.inUse
	}
	return st
}

func (s *sim) releaseStack(now int64, st *stack.Stack) {
	st.SetWatermark(0)
	s.freeStacks = append(s.freeStacks, st)
	s.inUse--
	if len(s.waiters) > 0 {
		wid := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.workers[wid].parked = false
		s.schedule(now, wid)
	}
}
