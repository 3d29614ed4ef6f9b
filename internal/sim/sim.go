// Package sim is a deterministic discrete-event simulator of the Fibril
// work-stealing runtime and its baselines, executing invocation trees
// (internal/invoke) on P simulated workers.
//
// The evaluation machine of the paper is a 72-hardware-thread Haswell; the
// reproduction host cannot measure real speedup curves at that scale, so
// the simulator regenerates Figure 4 and Tables 2–4 mechanistically: the
// paper's scheduler state machine (deques, randomized stealing, suspension
// with unmap, bounded pools, depth-restricted and leapfrog joins) driven by
// a cost model of the per-operation overheads, with stack pages accounted
// through the same internal/stack + internal/vm machinery as the real
// runtime. Besides the runtime's four strategies it runs three of its own
// (StrategyFibrilMMap, StrategyCilkM, StrategyLeapfrog): the paper's
// ablations and the related work it argues against, which this repository
// reproduces on the simulator only. It models the paper's scheduler, not
// what internal/core has grown since (private deque bottom, publish rule,
// search-then-park idle phase).
// Simulated time is in abstract units of roughly a nanosecond.
//
// The simulator is single-threaded and fully deterministic for a given
// (tree, config) pair.
package sim

import (
	"container/heap"
	"fmt"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/stack"
	"fibril/internal/vm"
)

// CostModel gives the simulated duration of each scheduler operation, in
// time units (≈ns). Zero fields take the listed defaults.
//
// The fork-path defaults are calibrated against the paper's Figure 3: on
// fib — whose ~20ns nodes make overhead ratios visible — the measured
// single-thread ratios (Fibril 0.55, Cilk Plus 0.29, TBB 0.09 of serial)
// imply per-spawn overheads of roughly 0.8×, 2.5×, and 10× the node work.
type CostModel struct {
	Fork         int64 // Fibril fork: deque push + counter + 3 reg saves (default 8)
	ForkCilkPlus int64 // Cilk Plus full spawn-frame prologue surcharge (default 33)
	ForkTBB      int64 // TBB task allocation + refcount surcharge (default 186)
	TaskStart    int64 // dequeue + frame setup when a task begins (default 8)
	StealProbe   int64 // one failed steal probe (default 30)
	Steal        int64 // successful steal handshake (default 120)
	Suspend      int64 // suspension bookkeeping (default 150)
	Resume       int64 // resumption bookkeeping (default 150)
	MadviseBase  int64 // madvise(DONTNEED) syscall (default 800)
	MMapBase     int64 // serialized mmap/dummy-remap syscall (default 2000)
	UnmapPerPage int64 // per-page cost of returning memory (default 3)
	PageFault    int64 // one demand-paging soft fault (default 1200)
	TLMMBase     int64 // Cilk-M: per-steal prefix-mapping syscall (default 1500)
	TLMMPerPage  int64 // Cilk-M: per prefix page mapped at a steal (default 120)
}

func (c CostModel) withDefaults() CostModel {
	def := func(v *int64, d int64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Fork, 8)
	def(&c.ForkCilkPlus, 33)
	def(&c.ForkTBB, 186)
	def(&c.TaskStart, 8)
	def(&c.StealProbe, 30)
	def(&c.Steal, 120)
	def(&c.Suspend, 150)
	def(&c.Resume, 150)
	def(&c.MadviseBase, 800)
	def(&c.MMapBase, 2000)
	def(&c.UnmapPerPage, 3)
	def(&c.PageFault, 1200)
	def(&c.TLMMBase, 1500)
	def(&c.TLMMPerPage, 120)
	return c
}

// forkCost returns the per-fork cost under the given strategy.
func (c CostModel) forkCost(s core.Strategy) int64 {
	switch s {
	case core.StrategyCilkPlus:
		return c.Fork + c.ForkCilkPlus
	case core.StrategyTBB:
		return c.Fork + c.ForkTBB
	default:
		return c.Fork
	}
}

// The simulator-only strategies. The real runtime has none of them, so their
// values are declared here, outside the range core hands out (NewRuntime
// refuses them).
const (
	// StrategyCilkM models Lee et al.'s Cilk-M (§3 of the paper): thread-local
	// memory mapping moves the stolen stack prefix into the thief's TLMM
	// region, so no suspension-time unmap is needed — but every steal pays
	// Cost.TLMMBase plus Cost.TLMMPerPage per prefix page. It schedules like
	// core.StrategyFibrilNoUnmap and is modelled in the work-first engine
	// only.
	StrategyCilkM core.Strategy = -1 - iota
	// StrategyFibrilMMap is the unmap-via-serialized-mmap ablation from §4.3:
	// unused pages are remapped to a dummy file under the address-space lock
	// (Cost.MMapBase) and must be remapped anonymous before reuse.
	StrategyFibrilMMap
	// StrategyLeapfrog restricts inline stealing further than TBB, to
	// descendants of the joining frame (Wagner & Calder's leapfrogging).
	StrategyLeapfrog
)

// Strategies lists every strategy Run accepts, in presentation order: each
// simulator-only strategy beside the runtime strategy it varies.
func Strategies() []core.Strategy {
	return []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap, StrategyFibrilMMap,
		core.StrategyCilkPlus, StrategyCilkM, core.StrategyTBB, StrategyLeapfrog,
	}
}

// StrategyName is s.String() extended to the simulator-only strategies.
func StrategyName(s core.Strategy) string {
	switch s {
	case StrategyCilkM:
		return "cilkm"
	case StrategyFibrilMMap:
		return "fibril-mmap"
	case StrategyLeapfrog:
		return "leapfrog"
	}
	return s.String()
}

// Config parameterizes a simulation.
type Config struct {
	Workers  int           // P (default 1)
	Strategy core.Strategy // scheduling policy
	// StackPages is the stack size. The default is stack.DefaultStackPages,
	// except under the inline-stealing strategies (TBB, leapfrog): they grow
	// one stack per worker, so they get OS-thread-sized (8 MB) stacks, as
	// real TBB workers have.
	StackPages int
	StackLimit int // bounded pool; 0 = strategy default
	Cost       CostModel
	Seed       uint64
	// WorkFirst selects the continuation-stealing engine — the paper's
	// actual Fibril discipline, where thieves steal the parent's
	// continuation and victims perform the unmaps. The default help-first
	// engine mirrors the Go runtime's child-stealing substitution.
	WorkFirst bool
	// OnTask, when non-nil, is called once per task instance at the moment
	// its activation record is pushed (i.e. the task starts executing), in
	// both engines. The simulator is single-threaded, so the callback needs
	// no synchronization. The conformance harness (internal/check) uses it
	// to collect the executed-task multiset for differential comparison
	// against the real runtime.
	OnTask func(t invoke.Task)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.StackPages <= 0 {
		c.StackPages = stack.DefaultStackPages
		if c.Strategy == core.StrategyTBB || c.Strategy == StrategyLeapfrog {
			c.StackPages = 2048
		}
	}
	if c.StackLimit <= 0 && c.Strategy == core.StrategyCilkPlus {
		c.StackLimit = stack.CilkPlusDefaultLimit
	}
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
	c.Cost = c.Cost.withDefaults()
	return c
}

// Result is the outcome of one simulated execution.
type Result struct {
	Strategy core.Strategy
	Workers  int

	Makespan int64 // simulated completion time Tp

	Tasks         int64 // task instances that began execution
	Forks         int64
	Steals        int64
	StealAttempts int64
	Suspends      int64
	Resumes       int64
	Unmaps        int64
	UnmappedPages int64
	PoolStalls    int64 // bounded-pool waits (Cilk Plus thieves stalling)

	StacksCreated int
	MaxStacksUsed int

	VM vm.Stats // page faults, RSS high-water, mmap/madvise counts
}

// MaxStackPagesPerWorker is S_P/P of Table 3: high-water resident stack
// pages divided by the worker count.
func (r Result) MaxStackPagesPerWorker() float64 {
	return float64(r.VM.MaxRSSPages) / float64(r.Workers)
}

// Speedup returns t1.Makespan / r.Makespan given the single-worker result.
func (r Result) Speedup(t1 Result) float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(t1.Makespan) / float64(r.Makespan)
}

func (r Result) String() string {
	return fmt.Sprintf("%s P=%d Tp=%d steals=%d unmaps=%d faults=%d maxRSS=%dp stacks=%d",
		StrategyName(r.Strategy), r.Workers, r.Makespan, r.Steals, r.Unmaps,
		r.VM.PageFaults, r.VM.MaxRSSPages, r.StacksCreated)
}

// Run simulates the tree under the config and returns the result.
func Run(cfg Config, tree invoke.Task) Result {
	cfg = cfg.withDefaults()
	if cfg.Strategy == StrategyCilkM && !cfg.WorkFirst {
		panic("sim: the cilkm strategy is modelled in the work-first engine only")
	}
	s := newSim(cfg)
	if cfg.WorkFirst {
		return s.runWorkFirst(tree)
	}
	return s.run(tree)
}

// drive is the event loop both engines share: every worker becomes
// actionable at time zero, step handles one event at a time until the root
// completes (a parked worker's events are stale: it waits on the stack
// pool), and the pool and address-space counters are folded into the
// Result. An empty queue before completion is a scheduling bug.
func (s *sim) drive(step func(wid int, now int64), label string) Result {
	for i := 0; i < s.cfg.Workers; i++ {
		s.schedule(0, i)
	}
	for !s.done && len(s.eq) > 0 {
		if e := heap.Pop(&s.eq).(event); !s.slots[e.w].parked {
			step(e.w, e.t)
		}
	}
	if !s.done {
		panic(fmt.Sprintf("%s: deadlock with %d workers (%d parked)",
			label, s.cfg.Workers, len(s.waiters)))
	}
	s.res.Strategy = s.cfg.Strategy
	s.res.Workers = s.cfg.Workers
	s.res.Makespan = s.makespan
	s.res.StacksCreated = s.created
	s.res.MaxStacksUsed = s.maxInUse
	s.res.VM = s.as.Snapshot()
	return s.res
}

// xorshift advances a worker's steal RNG (xorshift64*) and returns the
// next value.
func xorshift(state *uint64) uint64 {
	x := *state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*state = x
	return x * 0x2545F4914F6CDD1D
}

// event is one scheduler event: worker w becomes actionable at time t.
type event struct {
	t   int64
	seq int64 // FIFO tie-break for determinism
	w   int
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); v := old[n-1]; *q = old[:n-1]; return v }

var _ heap.Interface = (*eventQueue)(nil)
