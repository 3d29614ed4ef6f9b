package check

import (
	"testing"

	"fibril/internal/core"
)

// jobMix assembles k generated programs for a concurrent-submission leg,
// with every third slot holding a panic-injected program so panicking and
// clean roots share one scheduler.
func jobMix(t *testing.T, k int) []*Program {
	t.Helper()
	ps := make([]*Program, 0, k)
	seed := uint64(700)
	for len(ps) < k {
		params := Params{}
		wantPanic := len(ps)%3 == 0
		if wantPanic {
			params.PanicPct = 50
		}
		p := Generate(seed, params)
		seed++
		if wantPanic != (p.Panics > 0) {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// TestDifferentialConcurrentJobs is the concurrent-submission leg of the
// harness: ≥8 generated programs — mixed panicking and clean — submitted
// from one goroutine each as concurrent Jobs on ONE serving runtime,
// across strategies and worker counts, with every CheckJobs
// oracle (per-program exactly-once, panic isolation, job conservation,
// quiescence, trace reconciliation) asserted per leg.
func TestDifferentialConcurrentJobs(t *testing.T) {
	k := 10
	if testing.Short() {
		k = 8
	}
	ps := jobMix(t, k)
	legs := []struct {
		workers int
		strat   core.Strategy
	}{
		{2, core.StrategyFibril},
		{4, core.StrategyFibril},
		{1, core.StrategyFibril},
		{4, core.StrategyTBB},
	}
	if testing.Short() {
		legs = legs[:2]
	}
	for _, leg := range legs {
		e := RunRealJobs(ps, leg.workers, leg.strat)
		if err := CheckJobs(ps, e); err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentJobsCleanOnly runs the tighter panic-free laws (exact
// fork/call conservation, arena balance) on an all-clean program set.
func TestConcurrentJobsCleanOnly(t *testing.T) {
	k := 8
	ps := make([]*Program, 0, k)
	for seed := uint64(800); len(ps) < k; seed++ {
		ps = append(ps, Generate(seed, Params{}))
	}
	e := RunRealJobs(ps, 4, core.StrategyFibril)
	if err := CheckJobs(ps, e); err != nil {
		t.Error(err)
	}
}

// TestJobStressManySubmitters is the intake stress lane: 16 submitter
// goroutines × tiny single-node roots, with every oracle from
// CheckJobStress (exactly-once, Seq permutation, conservation, trace
// reconciliation), once unbounded and once at MaxInflight 2, where most
// submissions queue and completions promote them, and once unbounded on a
// single worker, where roots must also complete in ID order.
// The race job in CI runs this package, so the lane doubles as the
// -race certificate for the admission/queue/pooled/wake-one path. Its one
// subtest is named after the per-slot intake that is gone only so that its
// recorded test name stays stable.
func TestJobStressManySubmitters(t *testing.T) {
	const k, m, workers = 16, 25, 4
	t.Run("sharded", func(t *testing.T) {
		for _, c := range []struct{ workers, maxInflight int }{{workers, 0}, {workers, 2}, {1, 0}} {
			e := RunJobStress(k, m, c.workers, c.maxInflight)
			if err := CheckJobStress(k, m, e); err != nil {
				t.Fatal(err)
			}
		}
	})
}
