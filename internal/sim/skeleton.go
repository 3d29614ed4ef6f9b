package sim

import (
	"container/heap"
	"fmt"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/stack"
	"fibril/internal/vm"
)

// The engine-independent skeleton both engines run on: one slot per worker
// id, one deque type, one steal sweep, one idle-turn prelude, one fault
// charge, one unmap and one remap, and the bounded stack pool. The engines
// differ only where a discipline does: at fork, join and completion.

// slot is the state every worker id has under either engine. Each engine's
// worker embeds the sim's slot for its id, so whatever the skeleton does to
// a slot (parking it on the pool, waking it, charging it) reaches the worker
// the engine runs.
type slot struct {
	id     int
	rng    uint64 // steal RNG (xorshift64*)
	parked bool   // waiting for a bounded pool's stack
	over   int64  // accrued overhead charged with the next work event
}

// deque is a worker's deque: the owner end is the back, the thief end the
// front.
type deque[E any] []E

func (d *deque[E]) push(e E) { *d = append(*d, e) }

func (d *deque[E]) pop() (e E, ok bool) {
	n := len(*d)
	if n == 0 {
		return e, false
	}
	var zero E
	e, (*d)[n-1] = (*d)[n-1], zero
	*d = (*d)[:n-1]
	return e, true
}

// steal takes the front entry if there is one and eligible (nil = any)
// accepts it.
func (d *deque[E]) steal(eligible func(E) bool) (e E, ok bool) {
	if len(*d) == 0 || eligible != nil && !eligible((*d)[0]) {
		return e, false
	}
	var zero E
	e, (*d)[0] = (*d)[0], zero
	*d = (*d)[1:]
	return e, true
}

type sim struct {
	cfg   Config
	as    *vm.AddressSpace
	slots []slot
	eq    eventQueue
	seq   int64

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
	s := &sim{cfg: cfg, as: vm.NewAddressSpace(), slots: make([]slot, cfg.Workers)}
	for i := range s.slots {
		s.slots[i] = slot{id: i, rng: cfg.Seed + uint64(i)*0x9E3779B9}
	}
	return s
}

func (s *sim) schedule(t int64, wid int) {
	s.seq++
	heap.Push(&s.eq, event{t: t, seq: s.seq, w: wid})
}

// stealSweep probes every other worker once, round-robin from a random
// start — the paper's random_steal and Runtime.steal's rule. A worker never
// probes itself: its own deque is empty under help-first whenever it sweeps,
// and under work-first holds continuations of its own live context, which
// adopting would alias with itself. A success costs Cost.Steal on top of the
// failed probes before it; a failed sweep costs Cost.StealProbe per probe,
// and at least one.
func stealSweep[E any](s *sim, thief *slot, deq func(victim int) *deque[E], eligible func(E) bool) (int64, E, bool) {
	n := s.cfg.Workers
	start := int(xorshift(&thief.rng) % uint64(n))
	var cost int64
	for i := 0; i < n; i++ {
		v := (start + i) % n
		if v == thief.id {
			continue
		}
		s.res.StealAttempts++
		if e, ok := deq(v).steal(eligible); ok {
			s.res.Steals++
			return cost + s.cfg.Cost.Steal, e, true
		}
		cost += s.cfg.Cost.StealProbe
	}
	if cost == 0 {
		cost = s.cfg.Cost.StealProbe
	}
	var none E
	return cost, none, false
}

// begin pushes task t's frame on stk and counts the task as started; it
// returns the frame's base. A frame that does not fit means the stack is too
// small for the strategy.
func (s *sim) begin(stk *stack.Stack, t invoke.Task) int {
	base, err := stk.Push(t.Frame)
	if err != nil {
		panic(fmt.Sprintf("sim: %s overflowed a %d-page stack: %v",
			StrategyName(s.cfg.Strategy), stk.Capacity(), err))
	}
	s.res.Tasks++
	if s.cfg.OnTask != nil {
		s.cfg.OnTask(t)
	}
	return base
}

// idle opens an idle worker's turn in both engines: it is false when the
// computation is over or the worker has to wait for a bounded pool's stack,
// in which case it parks until releaseStack wakes it (the Cilk Plus stall).
func (s *sim) idle(w *slot) bool {
	if s.done {
		return false
	}
	if !s.stackAvailable() {
		w.parked = true
		s.waiters = append(s.waiters, w.id)
		s.res.PoolStalls++
		return false
	}
	return true
}

// faultCost charges the latency of the page faults stk has taken since
// *mark, and moves the mark.
func (s *sim) faultCost(stk *stack.Stack, mark *int64) int64 {
	if stk == nil {
		return 0
	}
	cur := stk.Faults()
	d := cur - *mark
	*mark = cur
	return d * s.cfg.Cost.PageFault
}

// unmap returns a suspended stack's unused pages per the strategy (Listing
// 3's unmap) and returns its latency for a caller ready at time ready.
func (s *sim) unmap(ready int64, stk *stack.Stack) int64 {
	switch s.cfg.Strategy {
	case core.StrategyFibril:
		freed := stk.UnmapAbove()
		s.res.Unmaps++
		s.res.UnmappedPages += int64(freed)
		return s.cfg.Cost.MadviseBase + int64(freed)*s.cfg.Cost.UnmapPerPage
	case StrategyFibrilMMap:
		freed := stk.MapDummyAbove()
		s.res.Unmaps++
		s.res.UnmappedPages += int64(freed)
		return s.serializedMMap(ready, int64(freed))
	}
	return 0
}

// remap undoes the mmap ablation's dummy mapping above stk's watermark
// before its pages are used again, and returns the latency for a caller
// ready at time ready. Other strategies leave nothing to remap.
func (s *sim) remap(ready int64, stk *stack.Stack) int64 {
	if s.cfg.Strategy != StrategyFibrilMMap {
		return 0
	}
	stk.RemapAbove()
	return s.serializedMMap(ready, int64(stk.Capacity()-stk.Pages()))
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

// releaseStack pools st and wakes the longest-parked worker, whichever
// engine runs it.
func (s *sim) releaseStack(now int64, st *stack.Stack) {
	st.SetWatermark(0)
	s.freeStacks = append(s.freeStacks, st)
	s.inUse--
	if len(s.waiters) > 0 {
		wid := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.slots[wid].parked = false
		s.schedule(now, wid)
	}
}
