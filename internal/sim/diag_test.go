package sim

import (
	"testing"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// TestAdversarialDiagnostic logs the strategy separation on the
// adversarial workload; kept verbose-only for calibration.
func TestAdversarialDiagnostic(t *testing.T) {
	for _, arg := range []bench.Arg{bench.Adversarial.Default, bench.Adversarial.Paper} {
		t1 := Run(Config{Workers: 1, Strategy: core.StrategyFibril},
			bench.Adversarial.Tree(arg))
		for _, p := range []int{8, 16, 32} {
			for _, strat := range []core.Strategy{
				core.StrategyFibril, core.StrategyTBB, StrategyLeapfrog,
			} {
				r := Run(Config{Workers: p, Strategy: strat, StackPages: 4096},
					bench.Adversarial.Tree(arg))
				t.Logf("arg=%v P=%2d %-16v Tp=%9d speedup=%.2f steals=%d suspends=%d",
					arg, p, strat, r.Makespan, r.Speedup(t1), r.Steals, r.Suspends)
			}
		}
	}
}
