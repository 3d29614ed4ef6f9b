package sim

import (
	"testing"

	"fibril/internal/core"
)

// TestWFStacksFullyRetired checks the work-first engine's stack hygiene:
// when a run completes, every stack the pool created must be back in the
// free list (none orphaned forever) and hold zero live bytes — the
// cur-ownership bookkeeping that was the source of a double-allocation
// bug during development.
func TestWFStacksFullyRetired(t *testing.T) {
	for _, strat := range []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap,
		core.StrategyCilkPlus, StrategyCilkM, StrategyLeapfrog,
	} {
		cfg := wfConfig(strat, 12)
		cfg = cfg.withDefaults()
		s := newSim(cfg)
		s.runWorkFirst(fibTree(20))
		if s.inUse != 0 {
			t.Errorf("%s: %d stacks still checked out after completion", StrategyName(strat), s.inUse)
		}
		if len(s.freeStacks) != s.created {
			t.Errorf("%v: created %d stacks but only %d returned to the pool",
				strat, s.created, len(s.freeStacks))
		}
		for _, st := range s.freeStacks {
			if st.Bytes() != 0 {
				t.Errorf("%s: pooled stack %d holds %d live bytes", StrategyName(strat), st.ID(), st.Bytes())
			}
		}
	}
}

// TestHelpFirstStacksFullyRetired is the same check for the help-first
// engine.
func TestHelpFirstStacksFullyRetired(t *testing.T) {
	cfg := Config{Workers: 12, Strategy: core.StrategyFibril}.withDefaults()
	s := newSim(cfg)
	s.run(fibTree(20))
	if s.inUse != 0 {
		t.Errorf("%d stacks still checked out after completion", s.inUse)
	}
	if len(s.freeStacks) != s.created {
		t.Errorf("created %d stacks but only %d returned", s.created, len(s.freeStacks))
	}
}
