package sim

import (
	"testing"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// TestGoldenP72 pins simulated numbers bit for bit, so that a change to
// either engine that was meant to leave behaviour alone can be seen to have
// done so. The help-first rows are fib and nqueens at their Default inputs;
// the work-first row is fib's line of Table 2 in results/full-tables.txt. A
// deliberate change to the cost model or to an engine's scheduling updates
// these numbers and says so.
func TestGoldenP72(t *testing.T) {
	t.Run("helpfirst", func(t *testing.T) {
		for _, g := range []struct {
			bench            string
			makespan, steals int64
		}{
			{"fib", 352408, 1574},
			{"nqueens", 50664, 699},
		} {
			s := bench.Get(g.bench)
			r := Run(Config{Workers: 72, Strategy: core.StrategyFibril}, s.Tree(s.Default))
			t.Logf("%s %v: Makespan %d Steals %d", g.bench, s.Default, r.Makespan, r.Steals)
			if r.Makespan != g.makespan || r.Steals != g.steals {
				t.Errorf("%s %v: Makespan %d Steals %d, want %d %d",
					g.bench, s.Default, r.Makespan, r.Steals, g.makespan, g.steals)
			}
		}
	})
	t.Run("workfirst", func(t *testing.T) {
		s := bench.Get("fib")
		r := Run(Config{Workers: 72, Strategy: core.StrategyFibril, WorkFirst: true}, s.Tree(s.Sim))
		t.Logf("fib %v: Makespan %d Steals %d Unmaps %d PageFaults %d",
			s.Sim, r.Makespan, r.Steals, r.Unmaps, r.VM.PageFaults)
		if r.Makespan != 424496 || r.Steals != 1484 || r.Unmaps != 704 || r.VM.PageFaults != 108 {
			t.Errorf("fib %v: Makespan %d Steals %d Unmaps %d PageFaults %d, want 424496 1484 704 108",
				s.Sim, r.Makespan, r.Steals, r.Unmaps, r.VM.PageFaults)
		}
	})
}
