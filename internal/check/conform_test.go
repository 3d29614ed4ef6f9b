package check

import (
	"strings"
	"testing"

	"fibril/internal/core"
	"fibril/internal/sim"
)

// TestDifferentialConformance is the acceptance suite of the harness:
// ≥50 generated programs, each executed on the real runtime at 1, 2 and 4
// workers and on both simulator engines, with every oracle checked. Any failure prints a seed that replays with
// `go run ./cmd/fibril-check -seed N`.
func TestDifferentialConformance(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := 0; seed < n; seed++ {
		seed := uint64(seed)
		t.Run(Generate(seed, Params{}).String(), func(t *testing.T) {
			t.Parallel()
			p := Generate(seed, Params{})
			if err := Differential(p, Options{}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialStrategyMatrix runs a smaller seed range through the
// non-default strategies: the paper's ablations (NoUnmap, MMap) and the
// baselines whose join discipline differs structurally (CilkPlus suspends
// like Fibril but with a bounded pool; TBB and Leapfrog never suspend).
// MMap and Leapfrog are the simulator's alone, so they run its legs only.
func TestDifferentialStrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy matrix is long; covered by the default suite in short mode")
	}
	strategies := []core.Strategy{
		core.StrategyFibrilNoUnmap,
		sim.StrategyFibrilMMap,
		core.StrategyCilkPlus,
		core.StrategyTBB,
		sim.StrategyLeapfrog,
	}
	for _, strat := range strategies {
		strat := strat
		t.Run(sim.StrategyName(strat), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(100); seed < 110; seed++ {
				p := Generate(seed, Params{})
				opts := Options{
					Workers:    []int{2, 4},
					Strategies: []core.Strategy{strat},
					SimWorkers: []int{3},
				}
				// The TBB and Leapfrog joins run the inline-steal
				// discipline in both simulator engines, so both stay on.
				if err := Differential(p, opts); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestLegsCountRealLegsPerRuntimeStrategy: a simulator-only strategy adds
// the simulator legs and no real-runtime legs.
func TestLegsCountRealLegsPerRuntimeStrategy(t *testing.T) {
	o := Options{
		Workers:    []int{1, 2, 4},
		Strategies: []core.Strategy{core.StrategyFibril, sim.StrategyLeapfrog},
		SimWorkers: []int{1, 3},
	}
	if got, want := o.Legs(), (3+2*2)+(2*2); got != want {
		t.Errorf("Legs() = %d, want %d", got, want)
	}
	o.NoSim = true
	if got, want := o.Legs(), 3; got != want {
		t.Errorf("Legs() with NoSim = %d, want %d", got, want)
	}
	o.Strategies = []core.Strategy{sim.StrategyFibrilMMap}
	if got := o.Legs(); got != 0 {
		t.Errorf("Legs() for a simulator-only strategy with NoSim = %d, want 0", got)
	}
}

// TestDifferentialPanicPrograms checks orderly panic propagation: the
// injected panic resurfaces from Run as a *TaskPanic, nothing executes
// twice, and the runtime still quiesces cleanly.
func TestDifferentialPanicPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	ran := 0
	for seed := uint64(0); seed < uint64(n); seed++ {
		p := Generate(seed, Params{PanicPct: 35})
		if p.Panics == 0 {
			continue
		}
		ran++
		if err := Differential(p, Options{Workers: []int{1, 3}}); err != nil {
			t.Error(err)
		}
	}
	if ran == 0 {
		t.Fatal("no panic-injected programs generated; raise PanicPct or seed range")
	}
}

// TestDifferentialLazyPrograms mixes lazy fork edges into the generated
// programs: the real runtime resolves each one at run time via
// W.ShouldSplit (fork on an idle system, plain call on a busy one), the
// simulator forks them all, and the oracles hold the two accountings to
// the edge-conservation law. Combined with compile()'s deterministic
// ForkArg/Scratch alternation this drives the zero-allocation fork path
// and arena recycling through the full differential matrix.
func TestDifferentialLazyPrograms(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	withLazy := 0
	for seed := 0; seed < n; seed++ {
		seed := uint64(seed)
		p := Generate(seed, Params{LazyPct: 40})
		if p.LazyEdges > 0 {
			withLazy++
		}
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			p := Generate(seed, Params{LazyPct: 40})
			if err := Differential(p, Options{}); err != nil {
				t.Error(err)
			}
		})
	}
	if withLazy == 0 {
		t.Error("no program drew a lazy edge; raise LazyPct or the seed range")
	}
}

// TestDifferentialAdversarialParams pushes the generator to its corners:
// schedule-only programs (zero work everywhere is approximated by MaxWork=1),
// wide flat loops, and deep call-heavy nests.
func TestDifferentialAdversarialParams(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial corners are long; covered by fuzzing")
	}
	corners := []struct {
		name   string
		params Params
	}{
		{"schedule-only", Params{MaxWork: 1, MaxNodes: 80}},
		{"wide-loops", Params{LoopPct: 100, MaxFanout: 8, MaxDepth: 3}},
		{"deep-narrow", Params{MaxDepth: 12, MaxFanout: 1, MaxCalls: 3, MaxNodes: 60}},
		{"big-frames", Params{FrameMin: 3000, FrameMax: 8000, MaxNodes: 100}},
	}
	for _, c := range corners {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 8; seed++ {
				p := Generate(seed, c.params)
				if err := Differential(p, Options{Workers: []int{4}}); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestDifferentialMemoryEngine runs the seed range under a soft RSS
// ceiling low enough that the pressure valve fires on real programs (every
// other test here runs with no ceiling). Every oracle — Unmaps == Suspends
// and the ceiling accounting included — is checked on each leg.
func TestDifferentialMemoryEngine(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 4
	}
	for seed := 0; seed < n; seed++ {
		seed := uint64(seed)
		t.Run(Generate(seed, Params{}).String(), func(t *testing.T) {
			t.Parallel()
			p := Generate(seed, Params{})
			opts := Options{
				Workers: []int{1, 4},
				Mem:     []MemParams{{MaxResidentPages: 64}},
				NoSim:   true, // sim legs ignore Mem; covered elsewhere
			}
			if err := Differential(p, opts); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestViolationReportsSeed pins the replayability contract: a failing
// oracle's message must contain the program seed.
func TestViolationReportsSeed(t *testing.T) {
	p := Generate(42, Params{})
	e := RealExec{Label: "synthetic", Counts: make([]uint32, p.Nodes)} // all zero: violates exactly-once
	err := CheckReal(p, p.Metrics(), e)
	if err == nil {
		t.Fatal("all-zero counts passed the exactly-once oracle")
	}
	if want := "seed=0x2a"; !strings.Contains(err.Error(), want) {
		t.Fatalf("violation %q does not mention %q", err.Error(), want)
	}
}
