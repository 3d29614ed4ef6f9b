package check

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/sim"
	"fibril/internal/trace"
)

// harnessStackPages sizes the simulated stacks used by the harness's
// executors. Generated programs bound their frame bytes, but the
// help-first inline drain can nest frames beyond the serial depth, so the
// harness uses 4 MB stacks (vs the 1 MB default) to keep stack overflow —
// which the runtime treats as fatal — out of the reachable state space.
const harnessStackPages = 1024

// sink defeats dead-code elimination of the spin loops without racing.
var sink atomic.Uint64

// spin burns roughly `units` of CPU, the real-runtime analogue of an
// invoke.Seg's abstract work. Varying, nonzero durations are what open the
// steal/suspend race windows the harness exists to explore.
func spin(units int64) {
	x := uint64(units)*0x9E3779B97F4A7C15 | 1
	for i := int64(0); i < units*16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink.Store(x)
}

// InjectedPanic is the value a panic-injected leaf throws; the harness
// asserts it resurfaces from Run wrapped in a *core.TaskPanic.
type InjectedPanic struct {
	Seed uint64
	Node int
}

func (ip InjectedPanic) Error() string {
	return fmt.Sprintf("check: injected panic at node %d (seed %#x)", ip.Node, ip.Seed)
}

// Body compiles the program to a real-runtime task body. Executions are
// recorded in counts (one slot per node ID, atomically — thieves run
// nodes concurrently), which the exactly-once oracle inspects afterwards.
func (p *Program) Body(counts []uint32) func(*core.W) {
	return p.compile(p.Root, counts)
}

// bodyTramp adapts a compiled closure to the ForkArg calling convention:
// the payload is a pointer to the closure value in the parent's compiled
// segment table. The table is ordinary scanned memory kept alive by the
// parent body (blocked at its Join while children are in flight), so the
// arena's reachability contract is met without any extra pinning.
func bodyTramp(w *core.W, p unsafe.Pointer) {
	(*(*func(*core.W))(p))(w)
}

// compile lowers one node. Fork edges alternate deterministically (by
// node ID and segment index) between the closure fork and the
// zero-allocation ForkArg path, and forking nodes alternate between a
// stack-declared Frame and an arena Scratch block, so every conformance
// and fuzz run differentially exercises both fork representations and
// arena recycling — including the no-release-on-unwind rule: a panic
// surfacing at Join skips ReleaseScratch naturally, leaking the block to
// the GC as the arena contract requires. Lazy edges consult
// W.ShouldSplit and degrade to plain calls on a busy worker.
func (p *Program) compile(n *Node, counts []uint32) func(*core.W) {
	type cseg struct {
		work      int64
		call      func(*core.W)
		callBytes int
		fork      func(*core.W)
		forkBytes int
		useArg    bool
		lazy      bool
		join      bool
	}
	segs := make([]cseg, len(n.Segs))
	for i, s := range n.Segs {
		segs[i].work = s.Work
		segs[i].join = s.Join
		if s.Call != nil {
			segs[i].call = p.compile(s.Call, counts)
			segs[i].callBytes = s.Call.Frame
		}
		if s.Fork != nil {
			segs[i].fork = p.compile(s.Fork, counts)
			segs[i].forkBytes = s.Fork.Frame
			segs[i].useArg = (n.ID+i)%2 == 0
			segs[i].lazy = s.Lazy
		}
	}
	hasFork := n.forks()
	useScratch := hasFork && n.ID%2 == 1
	id, seed, doPanic := n.ID, p.Seed, n.Panic
	return func(w *core.W) {
		atomic.AddUint32(&counts[id], 1)
		var fr core.Frame
		frp := &fr
		var scratch *core.Scratch
		if hasFork {
			if useScratch {
				scratch = w.AcquireScratch()
				frp = scratch.Frame()
			}
			w.Init(frp)
		}
		forked := false
		for i := range segs {
			s := &segs[i]
			if s.work > 0 {
				spin(s.work)
			}
			if s.call != nil {
				w.CallSized(s.callBytes, s.call)
			}
			if s.fork != nil {
				switch {
				case s.lazy && !w.ShouldSplit():
					w.CallSized(s.forkBytes, s.fork)
				case s.useArg:
					w.ForkArgSized(frp, s.forkBytes, bodyTramp, unsafe.Pointer(&s.fork))
					forked = true
				default:
					w.ForkSized(frp, s.forkBytes, s.fork)
					forked = true
				}
			}
			if s.join && forked {
				w.Join(frp)
				forked = false
			}
		}
		if doPanic {
			// A leaf has nothing forked. An abandoning node unwinds past
			// its children, and its Scratch block — their frame — is left
			// to the GC, as for any panic.
			panic(InjectedPanic{Seed: seed, Node: id})
		}
		if forked {
			w.Join(frp)
		}
		if scratch != nil {
			// Quiescent: every Join above returned without panicking.
			w.ReleaseScratch(scratch)
		}
	}
}

// MemParams is the memory knob of a real-runtime leg: the soft RSS ceiling.
// The zero value is the default (no ceiling); the oracles read it to decide
// whether the ceiling's counters may move.
type MemParams struct {
	MaxResidentPages int64
}

// String renders the ceiling, empty for the zero value.
func (mp MemParams) String() string {
	if mp == (MemParams{}) {
		return ""
	}
	return fmt.Sprintf("ceiling=%d", mp.MaxResidentPages)
}

// RealExec is the observable outcome of one real-runtime execution.
type RealExec struct {
	Label     string
	Mem       MemParams
	Counts    []uint32 // executions per node ID
	Stats     core.Stats
	Queued    int          // tasks left in deques at quiescence (must be 0)
	Parked    int          // thieves still parked at quiescence (must be 0)
	Inflight  int          // InflightJobs at quiescence (must be 0)
	MaxHW     int          // largest per-stack high-water mark, in pages
	Recovered any          // value recovered from Run, if it panicked
	Trace     TraceSummary // recorded event stream, reconciled against Stats
}

// traceRecorderCap bounds the harness recorder. Generated programs emit a
// handful of events per node, so this is generous; if a soak program ever
// overflows it the reconciliation oracle sees Dropped > 0 and stands down
// rather than reporting phantom violations.
const traceRecorderCap = 1 << 21

// RunReal executes the program on a fresh real runtime and snapshots
// everything the oracles need. The runtime's steal RNG is seeded from the
// program seed (decorrelated by a constant) so executions are as
// reproducible as goroutine scheduling allows.
func RunReal(p *Program, workers int, strat core.Strategy, mem MemParams) RealExec {
	label := fmt.Sprintf("real/%v/P=%d", strat, workers)
	if s := mem.String(); s != "" {
		label += "[" + s + "]"
	}
	e := RealExec{
		Label:  label,
		Mem:    mem,
		Counts: make([]uint32, p.Nodes),
	}
	rec := trace.NewRecorder(traceRecorderCap)
	rt := core.NewRuntime(core.Config{
		Workers:          workers,
		Strategy:         strat,
		FrameBytes:       p.Root.Frame, // the root task charges its own frame
		StackPages:       harnessStackPages,
		Seed:             p.Seed ^ 0xC0FFEE,
		MaxResidentPages: mem.MaxResidentPages,
		Sink:             rec,
	})
	body := p.Body(e.Counts)
	func() {
		defer func() { e.Recovered = recover() }()
		rt.Run(body)
	}()
	e.Stats = rt.Stats()
	e.Trace = SummarizeTrace(rec)
	e.Queued = rt.QueuedTasks()
	e.Parked = rt.ParkedThieves()
	e.Inflight = rt.InflightJobs()
	e.MaxHW = rt.MaxStackHighWaterPages()
	return e
}

// SimExec is the observable outcome of one simulator execution.
type SimExec struct {
	Label     string
	Counts    []uint32 // executions per node ID, via the OnTask hook
	Res       sim.Result
	WorkFirst bool
}

// RunSim executes the program's invocation tree on a simulator engine.
// A simulator deadlock (its internal panic) is converted into a violation
// error rather than crashing the harness, since for the harness a deadlock
// is a finding, not a fatal condition.
func RunSim(p *Program, workers int, workFirst bool, strat core.Strategy) (e SimExec, err error) {
	engine := "helpfirst"
	if workFirst {
		engine = "workfirst"
	}
	e = SimExec{
		Label:     fmt.Sprintf("sim/%s/%s/P=%d", engine, sim.StrategyName(strat), workers),
		Counts:    make([]uint32, p.Nodes),
		WorkFirst: workFirst,
	}
	cfg := sim.Config{
		Workers:    workers,
		Strategy:   strat,
		StackPages: harnessStackPages,
		Seed:       p.Seed ^ 0xFACADE,
		WorkFirst:  workFirst,
		OnTask: func(t invoke.Task) {
			if t.Key < 1 || t.Key > uint64(len(e.Counts)) {
				err = fmt.Errorf("%s: executed task with unknown key %d", e.Label, t.Key)
				return
			}
			e.Counts[t.Key-1]++
		},
	}
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s: simulator fault: %v", e.Label, v)
		}
	}()
	e.Res = sim.Run(cfg, p.Tree())
	return e, err
}
