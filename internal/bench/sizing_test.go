package bench

import (
	"testing"

	"fibril/internal/invoke"
)

// simTaskLimit is the tractable band's ceiling: the Figure 4 sweeps run
// dozens of simulations per benchmark, so every Sim tree must stay in the
// low millions of tasks.
const simTaskLimit = 3_000_000

// TestSimTreeSizesStayTractable pins the Sim-input tree sizes under
// simTaskLimit.
func TestSimTreeSizesStayTractable(t *testing.T) {
	for _, s := range All() {
		m := invoke.Analyze(s.Tree(s.Sim))
		if m.Tasks > simTaskLimit {
			t.Errorf("%s: sim tree has %d tasks (> %d)", s.Name, m.Tasks, simTaskLimit)
		}
	}
}

// TestIntegrateSizing pins integrate's committed inputs, whose tree grows
// steeply with the tolerance: the Sim tree is larger than the Default one
// in tasks and in T1, stays under simTaskLimit, and has the parallelism
// for 72 simulated workers.
func TestIntegrateSizing(t *testing.T) {
	def := invoke.Analyze(Integrate.Tree(Integrate.Default))
	sim := invoke.Analyze(Integrate.Tree(Integrate.Sim))
	t.Logf("integrate Default %v: %v", Integrate.Default, def)
	t.Logf("integrate Sim %v: %v", Integrate.Sim, sim)
	if sim.Tasks <= def.Tasks || sim.Work <= def.Work {
		t.Errorf("Sim tree (tasks=%d T1=%d) is not larger than Default (tasks=%d T1=%d)",
			sim.Tasks, sim.Work, def.Tasks, def.Work)
	}
	if sim.Tasks > simTaskLimit {
		t.Errorf("Sim tree has %d tasks (> %d)", sim.Tasks, simTaskLimit)
	}
	if p := sim.Parallelism(); p < 72 {
		t.Errorf("Sim tree parallelism T1/T∞ = %.1f, want at least 72", p)
	}
}
