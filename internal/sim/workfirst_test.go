package sim

import (
	"testing"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/vm"
)

func wfConfig(strat core.Strategy, p int) Config {
	return Config{Workers: p, Strategy: strat, WorkFirst: true}
}

func TestWFSingleWorkerExecutesAllWork(t *testing.T) {
	m := invoke.Analyze(fibTree(15))
	r := Run(wfConfig(core.StrategyFibril, 1), fibTree(15))
	if r.Makespan < m.Work {
		t.Errorf("makespan %d < work %d", r.Makespan, m.Work)
	}
	if r.Steals != 0 || r.Suspends != 0 || r.Unmaps != 0 {
		t.Errorf("P=1 stole %d / suspended %d / unmapped %d", r.Steals, r.Suspends, r.Unmaps)
	}
	if r.Forks != m.Forks {
		t.Errorf("forks %d != %d", r.Forks, m.Forks)
	}
	if r.StacksCreated != 1 {
		t.Errorf("stacks = %d", r.StacksCreated)
	}
}

func TestWFDeterminism(t *testing.T) {
	a := Run(wfConfig(core.StrategyFibril, 8), fibTree(16))
	b := Run(wfConfig(core.StrategyFibril, 8), fibTree(16))
	if a != b {
		t.Errorf("two identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestWFAllBenchmarksAllStrategies(t *testing.T) {
	strategies := []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap, StrategyFibrilMMap,
		core.StrategyCilkPlus, StrategyCilkM, core.StrategyTBB,
		StrategyLeapfrog,
	}
	for _, s := range bench.All() {
		want := invoke.Analyze(s.Tree(s.Default)).Forks
		for _, strat := range strategies {
			cfg := wfConfig(strat, 6)
			cfg.StackPages = 8192
			r := Run(cfg, s.Tree(s.Default))
			if s.Name == "knapsack" {
				if r.Forks == 0 {
					t.Errorf("knapsack/%s: no forks", StrategyName(strat))
				}
				continue
			}
			if r.Forks != want {
				t.Errorf("%s/%s: %d forks, tree has %d", s.Name, StrategyName(strat), r.Forks, want)
			}
		}
	}
}

func TestWFSpeedupGrows(t *testing.T) {
	t1 := Run(wfConfig(core.StrategyFibril, 1), fibTree(22))
	t4 := Run(wfConfig(core.StrategyFibril, 4), fibTree(22))
	t16 := Run(wfConfig(core.StrategyFibril, 16), fibTree(22))
	s4, s16 := t4.Speedup(t1), t16.Speedup(t1)
	if s4 < 2.0 {
		t.Errorf("P=4 speedup %.2f", s4)
	}
	if s16 < s4 || s16 > 16.01 {
		t.Errorf("P=16 speedup %.2f (P=4: %.2f)", s16, s4)
	}
}

func TestWFUnmapsAtMostSteals(t *testing.T) {
	// In work-first the victim unmaps only when the finisher loses the
	// race — the paper's Table 2 observation that unmaps < steals.
	r := Run(wfConfig(core.StrategyFibril, 16), fibTree(20))
	if r.Unmaps > r.Steals {
		t.Errorf("unmaps %d > steals %d", r.Unmaps, r.Steals)
	}
	if r.Suspends != r.Resumes {
		t.Errorf("suspends %d != resumes %d", r.Suspends, r.Resumes)
	}
}

func TestWFTheorem42PhysicalBound(t *testing.T) {
	for _, s := range bench.All() {
		m := invoke.Analyze(s.Tree(s.Default))
		s1 := vm.PageAlign(int(m.MaxStackBytes))
		d := m.FibrilDepth
		for _, p := range []int{8, 72} {
			r := Run(wfConfig(core.StrategyFibril, p), s.Tree(s.Default))
			bound := int64(p) * int64(s1+d)
			if r.VM.MaxRSSPages > bound {
				t.Errorf("%s P=%d: maxRSS %d > P(S1+D)=%d", s.Name, p, r.VM.MaxRSSPages, bound)
			}
		}
	}
}

func TestWFGreedyLowerBounds(t *testing.T) {
	m := invoke.Analyze(fibTree(18))
	for _, p := range []int{2, 8, 32} {
		r := Run(wfConfig(core.StrategyFibril, p), fibTree(18))
		if r.Makespan < m.Work/int64(p) || r.Makespan < m.Span {
			t.Errorf("P=%d: Tp=%d below greedy bounds (T1=%d T∞=%d)",
				p, r.Makespan, m.Work, m.Span)
		}
	}
}

// TestWFDepthRestrictionBitesHarder verifies the semantic claim of
// DESIGN.md: under work-first stealing, deques hold *ancestor
// continuations* (shallow), so a deep blocked TBB joiner finds almost
// nothing eligible — Sukha's pathology appears on ordinary trees like
// fib, not just the engineered adversarial workload.
func TestWFDepthRestrictionBitesHarder(t *testing.T) {
	p := 16
	t1 := Run(wfConfig(core.StrategyFibril, 1), fibTree(22))
	fib := Run(wfConfig(core.StrategyFibril, p), fibTree(22))
	tbb := Run(wfConfig(core.StrategyTBB, p), fibTree(22))
	sFib, sTBB := fib.Speedup(t1), tbb.Speedup(t1)
	if sFib < 1.5*sTBB {
		t.Errorf("work-first fib P=%d: fibril %.2f not ≥ 1.5× tbb %.2f", p, sFib, sTBB)
	}
	// The same comparison under help-first is much closer (the drain-first
	// join hides the restriction); see the help-first suite.
}

func TestWFVictimSideUnmapAccounting(t *testing.T) {
	// All unmap calls must come with a suspension or a severed strand —
	// never exceed steals + suspends.
	r := Run(wfConfig(core.StrategyFibril, 16), fibTree(22))
	if r.Unmaps > r.Steals+r.Suspends {
		t.Errorf("unmaps %d > steals %d + suspends %d", r.Unmaps, r.Steals, r.Suspends)
	}
	if r.Steals == 0 {
		t.Error("no steals at P=16; test vacuous")
	}
}

func TestWFMMapSlowerThanMadvise(t *testing.T) {
	madv := Run(wfConfig(core.StrategyFibril, 32), fibTree(22))
	mm := Run(wfConfig(StrategyFibrilMMap, 32), fibTree(22))
	if mm.Unmaps > 0 && mm.Makespan <= madv.Makespan {
		t.Errorf("mmap unmap (%d) not slower than madvise (%d)", mm.Makespan, madv.Makespan)
	}
	checkRemapDiscipline(t, madv, mm)
}

func TestWFCilkPlusTightPoolStalls(t *testing.T) {
	tight := Run(Config{Workers: 8, Strategy: core.StrategyCilkPlus,
		StackLimit: 9, WorkFirst: true}, fibTree(20))
	t.Logf("limit 9: Tp %d, %d stalls, %d stacks", tight.Makespan, tight.PoolStalls, tight.StacksCreated)
	if tight.PoolStalls == 0 {
		t.Error("tight pool recorded no stalls under work-first")
	}
	// A stalled thief is woken when a stack comes back, and may stall
	// again; a worker that is never woken stalls at most once.
	if tight.PoolStalls <= int64(tight.Workers) {
		t.Errorf("%d stalls for %d workers: a parked thief was never woken",
			tight.PoolStalls, tight.Workers)
	}
	if tight.StacksCreated > 9 {
		t.Errorf("created %d stacks with limit 9", tight.StacksCreated)
	}
}

func TestWFCilkMPaysPerStealPrefixCost(t *testing.T) {
	// Cilk-M schedules like Fibril-without-unmap but charges a TLMM
	// prefix-mapping latency on every steal; with steals present it must
	// be measurably slower, and it never unmaps.
	fib := Run(wfConfig(core.StrategyFibrilNoUnmap, 16), fibTree(22))
	cm := Run(wfConfig(StrategyCilkM, 16), fibTree(22))
	if cm.Unmaps != 0 || cm.VM.MadviseCalls != 0 {
		t.Errorf("cilkm unmapped: %d/%d", cm.Unmaps, cm.VM.MadviseCalls)
	}
	if cm.Steals == 0 {
		t.Fatal("no steals; test vacuous")
	}
	if cm.Makespan <= fib.Makespan {
		t.Errorf("cilkm (%d) not slower than fibril-nounmap (%d) despite %d prefix mappings",
			cm.Makespan, fib.Makespan, cm.Steals)
	}
}
