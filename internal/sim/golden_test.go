package sim

import (
	"testing"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// TestGoldenP72 pins simulated numbers bit for bit, so that a change to
// either engine that was meant to leave behaviour alone can be seen to have
// done so. The help-first rows are the last committed `random` rows of the
// retired steal-policy experiment (DESIGN.md, appendix); the work-first row is
// fib's line of Table 2 in results/full-tables.txt. A deliberate change to
// the cost model or to an engine's scheduling updates these numbers and
// says so.
func TestGoldenP72(t *testing.T) {
	t.Run("helpfirst", func(t *testing.T) {
		for _, g := range []struct {
			bench                        string
			makespan, steals, warm, cold int64
		}{
			{"fib", 360002, 1420, 27, 1393},
			{"nqueens", 55435, 686, 8, 678},
		} {
			s := bench.Get(g.bench)
			r := Run(Config{Workers: 72, Strategy: core.StrategyFibril}, s.Tree(s.Default))
			if r.Makespan != g.makespan || r.Steals != g.steals ||
				r.WarmSteals != g.warm || r.ColdSteals != g.cold {
				t.Errorf("%s %v: Makespan %d Steals %d WarmSteals %d ColdSteals %d, want %d %d %d %d",
					g.bench, s.Default, r.Makespan, r.Steals, r.WarmSteals, r.ColdSteals,
					g.makespan, g.steals, g.warm, g.cold)
			}
		}
	})
	t.Run("workfirst", func(t *testing.T) {
		s := bench.Get("fib")
		r := Run(Config{Workers: 72, Strategy: core.StrategyFibril, WorkFirst: true}, s.Tree(s.Sim))
		if r.Makespan != 424496 || r.Steals != 1484 || r.Unmaps != 704 || r.VM.PageFaults != 108 {
			t.Errorf("fib %v: Makespan %d Steals %d Unmaps %d PageFaults %d, want 424496 1484 704 108",
				s.Sim, r.Makespan, r.Steals, r.Unmaps, r.VM.PageFaults)
		}
	})
}
