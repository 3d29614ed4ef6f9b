package sim

import (
	"testing"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/vm"
)

func fibTree(n int) invoke.Task { return bench.Fib.Tree(bench.Arg{N: n}) }

func TestSingleWorkerExecutesAllWork(t *testing.T) {
	tree := fibTree(15)
	m := invoke.Analyze(fibTree(15))
	r := Run(Config{Workers: 1, Strategy: core.StrategyFibril}, tree)
	if r.Makespan < m.Work {
		t.Errorf("makespan %d < work %d", r.Makespan, m.Work)
	}
	if r.Steals != 0 || r.Suspends != 0 {
		t.Errorf("P=1 run stole %d / suspended %d", r.Steals, r.Suspends)
	}
	if r.Forks != m.Forks {
		t.Errorf("simulated forks %d != tree forks %d", r.Forks, m.Forks)
	}
	if r.StacksCreated != 1 {
		t.Errorf("P=1 created %d stacks", r.StacksCreated)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Workers: 8, Strategy: core.StrategyFibril}
	a := Run(cfg, fibTree(16))
	b := Run(cfg, fibTree(16))
	if a != b {
		t.Errorf("two identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestSpeedupGrowsWithWorkers(t *testing.T) {
	tree := func() invoke.Task { return fibTree(22) }
	t1 := Run(Config{Workers: 1, Strategy: core.StrategyFibril}, tree())
	t4 := Run(Config{Workers: 4, Strategy: core.StrategyFibril}, tree())
	t16 := Run(Config{Workers: 16, Strategy: core.StrategyFibril}, tree())
	s4, s16 := t4.Speedup(t1), t16.Speedup(t1)
	if s4 < 2.0 {
		t.Errorf("P=4 speedup %.2f < 2", s4)
	}
	if s16 < s4 {
		t.Errorf("P=16 speedup %.2f < P=4 speedup %.2f", s16, s4)
	}
	if s16 > 16.01 {
		t.Errorf("P=16 speedup %.2f is superlinear — accounting bug", s16)
	}
}

func TestGreedyLowerBounds(t *testing.T) {
	// Tp ≥ max(T1/P, T∞) must hold for any scheduler.
	m := invoke.Analyze(fibTree(18))
	for _, p := range []int{2, 8, 32} {
		r := Run(Config{Workers: p, Strategy: core.StrategyFibril}, fibTree(18))
		if r.Makespan < m.Work/int64(p) {
			t.Errorf("P=%d: Tp=%d < T1/P=%d", p, r.Makespan, m.Work/int64(p))
		}
		if r.Makespan < m.Span {
			t.Errorf("P=%d: Tp=%d < T∞=%d", p, r.Makespan, m.Span)
		}
	}
}

func TestBlumofeLeisersonTimeBound(t *testing.T) {
	// Tp ≤ T1'/P + c∞·T∞' — the bound of Theorem 4.3 stated against
	// overhead-inclusive work and span: T1' adds the per-task and per-fork
	// scheduler costs that the simulator charges (they parallelize like
	// work), and T∞' adds per-level scheduling costs along the critical
	// path. c∞ is generous; the point is the SHAPE (no blow-up at high P).
	cost := CostModel{}.withDefaults()
	const cInf = 16
	for _, name := range []string{"fib", "nqueens", "quicksort", "heat"} {
		s := bench.Get(name)
		m := invoke.Analyze(s.Tree(s.Default))
		perLevel := cost.TaskStart + cost.Fork + cost.Steal + cost.Suspend +
			cost.MadviseBase + cost.Resume + 4*cost.PageFault
		work := m.Work + m.Tasks*cost.TaskStart + m.Forks*cost.Fork
		span := m.Span + int64(m.CallDepth)*perLevel
		for _, p := range []int{4, 16, 72} {
			r := Run(Config{Workers: p, Strategy: core.StrategyFibril}, s.Tree(s.Default))
			bound := work/int64(p) + cInf*span
			if r.Makespan > bound {
				t.Errorf("%s P=%d: Tp=%d > T1'/P + %d·T∞' = %d",
					name, p, r.Makespan, cInf, bound)
			}
		}
	}
}

func TestSuspendResumeBalance(t *testing.T) {
	for _, strat := range []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap,
		StrategyFibrilMMap, core.StrategyCilkPlus,
	} {
		r := Run(Config{Workers: 8, Strategy: strat}, fibTree(20))
		if r.Suspends != r.Resumes {
			t.Errorf("%s: suspends %d != resumes %d", StrategyName(strat), r.Suspends, r.Resumes)
		}
	}
}

func TestUnmapAccounting(t *testing.T) {
	r := Run(Config{Workers: 8, Strategy: core.StrategyFibril}, fibTree(20))
	if r.Unmaps != r.Suspends {
		t.Errorf("fibril: unmaps %d != suspends %d", r.Unmaps, r.Suspends)
	}
	if r.Unmaps > r.Steals {
		t.Errorf("unmaps %d > steals %d — violates the paper's Table 2 relation", r.Unmaps, r.Steals)
	}
	nr := Run(Config{Workers: 8, Strategy: core.StrategyFibrilNoUnmap}, fibTree(20))
	if nr.Unmaps != 0 || nr.VM.MadviseCalls != 0 {
		t.Errorf("no-unmap variant unmapped: %d/%d", nr.Unmaps, nr.VM.MadviseCalls)
	}
}

func TestUnmapReducesResidency(t *testing.T) {
	// The whole point of the paper: with unmap, high-water RSS stays near
	// the P(S1+D) bound; without it, pooled and suspended stacks keep
	// their pages. Use a deep spawn chain to magnify the difference.
	tree := func() invoke.Task { return bench.Get("quicksort").Tree(bench.Arg{N: 200_000}) }
	with := Run(Config{Workers: 16, Strategy: core.StrategyFibril}, tree())
	without := Run(Config{Workers: 16, Strategy: core.StrategyFibrilNoUnmap}, tree())
	if with.VM.MaxRSSPages >= without.VM.MaxRSSPages {
		t.Errorf("unmap did not reduce max RSS: with=%d without=%d pages",
			with.VM.MaxRSSPages, without.VM.MaxRSSPages)
	}
}

func TestTheorem42PhysicalBound(t *testing.T) {
	// Sp ≤ P(S1+D) pages for the Fibril strategy, every benchmark.
	for _, s := range bench.All() {
		m := invoke.Analyze(s.Tree(s.Default))
		s1 := vm.PageAlign(int(m.MaxStackBytes))
		d := m.FibrilDepth
		for _, p := range []int{8, 72} {
			r := Run(Config{Workers: p, Strategy: core.StrategyFibril}, s.Tree(s.Default))
			bound := int64(p) * int64(s1+d)
			if r.VM.MaxRSSPages > bound {
				t.Errorf("%s P=%d: maxRSS %d pages > P(S1+D) = %d (S1=%d D=%d)",
					s.Name, p, r.VM.MaxRSSPages, bound, s1, d)
			}
		}
	}
}

func TestTheorem41VirtualBound(t *testing.T) {
	// Each root-to-leaf path spans ≤ D stacks and there are ≤ P busy
	// leaves, so at most P·(D+1) stacks are ever simultaneously in use.
	for _, s := range bench.All() {
		m := invoke.Analyze(s.Tree(s.Default))
		for _, p := range []int{8, 72} {
			r := Run(Config{Workers: p, Strategy: core.StrategyFibril}, s.Tree(s.Default))
			if max := p * (m.FibrilDepth + 1); r.MaxStacksUsed > max {
				t.Errorf("%s P=%d: %d stacks in use > P(D+1) = %d",
					s.Name, p, r.MaxStacksUsed, max)
			}
		}
	}
}

func TestDepthRestrictedPathology(t *testing.T) {
	// On the adversarial workload, unrestricted stealing (Fibril) must
	// clearly beat depth-restricted (TBB) — the direction of Sukha's lower
	// bound. Note the bound's full serialization applies to *work-first*
	// schedulers; this engine's help-first joins drain local work before
	// blocking, which softens (but does not remove) the pathology — see
	// EXPERIMENTS.md.
	tree := func() invoke.Task { return bench.Adversarial.Tree(bench.Adversarial.Default) }
	p := 16
	fib1 := Run(Config{Workers: 1, Strategy: core.StrategyFibril}, tree())
	fibP := Run(Config{Workers: p, Strategy: core.StrategyFibril}, tree())
	tbbP := Run(Config{Workers: p, Strategy: core.StrategyTBB, StackPages: 4096}, tree())
	sFib, sTBB := fibP.Speedup(fib1), tbbP.Speedup(fib1)
	if sFib < 1.2*sTBB {
		t.Errorf("adversarial P=%d: fibril speedup %.2f not > 1.2× tbb %.2f", p, sFib, sTBB)
	}
}

func TestInlineStealersUseOneStackPerWorker(t *testing.T) {
	for _, strat := range []core.Strategy{core.StrategyTBB, StrategyLeapfrog} {
		r := Run(Config{Workers: 8, Strategy: strat, StackPages: 4096}, fibTree(20))
		if r.StacksCreated > 8 {
			t.Errorf("%s created %d stacks for 8 workers", StrategyName(strat), r.StacksCreated)
		}
		if r.Suspends != 0 {
			t.Errorf("%s suspended %d times", StrategyName(strat), r.Suspends)
		}
	}
}

func TestMMapSerializationCostsMore(t *testing.T) {
	// Steal-heavy workload at high P: the serialized-mmap unmap must be
	// slower than lock-free madvise — the design argument of §4.3.
	tree := func() invoke.Task { return fibTree(22) }
	madv := Run(Config{Workers: 32, Strategy: core.StrategyFibril}, tree())
	mm := Run(Config{Workers: 32, Strategy: StrategyFibrilMMap}, tree())
	if mm.Makespan <= madv.Makespan {
		t.Errorf("mmap-based unmap (%d) not slower than madvise (%d)",
			mm.Makespan, madv.Makespan)
	}
	checkRemapDiscipline(t, madv, mm)
}

// checkRemapDiscipline: a dummy-mapped stack is remapped before it is used
// again — mmap mode remaps once it has suspended, and never touches a dummy
// page — while madvise-based Fibril never remaps at all (its pages fault
// back lazily).
func checkRemapDiscipline(t *testing.T, madv, mm Result) {
	t.Helper()
	if mm.Suspends > 0 && mm.VM.RemapCalls == 0 {
		t.Error("mmap mode suspended but never remapped")
	}
	if mm.VM.DummyTouches != 0 {
		t.Errorf("dummy touches = %d — a stack was used without remap", mm.VM.DummyTouches)
	}
	if madv.VM.RemapCalls != 0 {
		t.Errorf("madvise mode recorded %d remaps, want 0", madv.VM.RemapCalls)
	}
}

func TestCilkPlusBoundedPoolStalls(t *testing.T) {
	// A tight stack limit forces thieves to refrain from stealing.
	tree := func() invoke.Task { return fibTree(20) }
	tight := Run(Config{Workers: 8, Strategy: core.StrategyCilkPlus, StackLimit: 9}, tree())
	roomy := Run(Config{Workers: 8, Strategy: core.StrategyCilkPlus, StackLimit: 2400}, tree())
	t.Logf("limit 9: Tp %d, %d stalls; limit 2400: Tp %d", tight.Makespan, tight.PoolStalls, roomy.Makespan)
	if tight.PoolStalls == 0 {
		t.Error("tight pool recorded no stalls")
	}
	if tight.Makespan < roomy.Makespan {
		t.Errorf("tight pool (%d) faster than roomy pool (%d)", tight.Makespan, roomy.Makespan)
	}
	if tight.StacksCreated > 9 {
		t.Errorf("bounded pool created %d stacks, limit 9", tight.StacksCreated)
	}
}

// deepFrameTree builds a spawn chain with page-sized frames where every
// task first CALLS a deep serial arm (touching many pages that then pop,
// leaving resident pages above the watermark) and then forks and joins —
// so a suspension has real pages to unmap and a resumption refaults them.
func deepFrameTree(depth int) invoke.Task {
	if depth == 0 {
		return invoke.Task{Frame: 8192, Segs: []invoke.Seg{{Work: 400}}}
	}
	return invoke.Task{Frame: 8192, Segs: []invoke.Seg{
		{Work: 5, Call: func() invoke.Task { return serialArm(24) }},
		{Fork: func() invoke.Task { return deepFrameTree(depth - 1) }},
		{Work: 120, Join: true},
		{Work: 5, Call: func() invoke.Task { return serialArm(24) }},
	}}
}

func serialArm(depth int) invoke.Task {
	if depth == 0 {
		return invoke.Task{Frame: 8192, Segs: []invoke.Seg{{Work: 4}}}
	}
	return invoke.Task{Frame: 8192, Segs: []invoke.Seg{
		{Work: 1, Call: func() invoke.Task { return serialArm(depth - 1) }},
	}}
}

func TestPageFaultsIncreaseWithUnmap(t *testing.T) {
	// Table 2: Fibril's unmap increases page faults relative to no-unmap,
	// because pages returned to the OS fault back in when the suspended
	// frame resumes and pushes new frames.
	with := Run(Config{Workers: 8, Strategy: core.StrategyFibril}, deepFrameTree(60))
	without := Run(Config{Workers: 8, Strategy: core.StrategyFibrilNoUnmap}, deepFrameTree(60))
	if with.UnmappedPages == 0 {
		t.Fatal("workload produced no unmapped pages; test is vacuous")
	}
	if with.VM.PageFaults <= without.VM.PageFaults {
		t.Errorf("faults with unmap (%d) not above without (%d)",
			with.VM.PageFaults, without.VM.PageFaults)
	}
}

func TestAllStrategiesCompleteAllBenchmarks(t *testing.T) {
	strategies := []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap, StrategyFibrilMMap,
		core.StrategyCilkPlus, core.StrategyTBB, StrategyLeapfrog,
	}
	for _, s := range bench.All() {
		want := invoke.Analyze(s.Tree(s.Default)).Forks
		for _, strat := range strategies {
			r := Run(Config{Workers: 6, Strategy: strat, StackPages: 8192}, s.Tree(s.Default))
			if s.Name == "knapsack" {
				// B&B speculation is schedule-dependent (shared incumbent):
				// the fork count varies by strategy, but never below the
				// serial certificate and never absurdly above it.
				if r.Forks == 0 || r.Forks > 50*want {
					t.Errorf("knapsack/%s: %d forks vs serial %d", StrategyName(strat), r.Forks, want)
				}
				continue
			}
			if r.Forks != want {
				t.Errorf("%s/%s: executed %d forks, tree has %d", s.Name, StrategyName(strat), r.Forks, want)
			}
		}
	}
}
