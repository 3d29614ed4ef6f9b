package exper

import (
	"fmt"
	"runtime"
	"slices"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/sim"
	"fibril/internal/table"
)

// StealPolicyRow is one measurement of the steal-policy experiment, shaped
// for machine consumption (-json). Real rows (Kind "real", P=4) carry the
// per-fork wall cost and the arena's remote-free counters — the policies
// must not regress the zero-allocation fork path.
// Sim rows (Kind "sim", P=72 under the cache-complexity cost model) carry
// the makespan and the warm/cold steal split that the locality policies
// exist to improve: an affinity policy earns its keep by re-hitting warm
// victims (WarmSteals up, ColdSteals down), not by shortening fib's
// critical path, where steals are off the critical path and random is
// already near-optimal.
type StealPolicyRow struct {
	Kind            string  `json:"kind"` // "real" or "sim"
	Benchmark       string  `json:"benchmark"`
	Policy          string  `json:"policy"`
	Workers         int     `json:"p"`
	NsPerFork       float64 `json:"ns_op,omitempty"`
	Makespan        int64   `json:"makespan,omitempty"`
	SpeedupVsRandom float64 `json:"speedup_vs_random,omitempty"`
	Steals          int64   `json:"steals"`
	WarmSteals      int64   `json:"warm_steals"`
	ColdSteals      int64   `json:"cold_steals"`
	RemoteFrees     int64   `json:"remote_frees"`
	RemoteDrains    int64   `json:"remote_drains"`
	ArenaDrops      int64   `json:"arena_drops"`
}

// stealPolicyBenches are the steal-heavy workloads of the policy
// comparison: fine-grained fib and the irregular nqueens tree.
var stealPolicyBenches = []string{"fib", "nqueens"}

// StealPolicy measures every steal policy on both vehicles: the real
// runtime at P=4 (per-fork cost plus arena traffic), and the deterministic
// simulator at P=72 under the cache-complexity cost model
// (StealCold/StealWarm/NearHop), where the policy differences are
// demonstrable regardless of the host's core count. Policies are modelled
// in the help-first engine, so the sim legs always run help-first.
func StealPolicy(o Options) ([]StealPolicyRow, *table.Table) {
	o = o.withDefaults()
	workers := o.Workers
	if workers == 0 {
		workers = 4
	}
	const simP = 72
	t := &table.Table{
		Title: "Steal policies: real fork path (P=4) and simulated cache behaviour (P=72)",
		Header: []string{"kind", "benchmark", "policy", "P", "ns/fork", "makespan",
			"vs-random", "steals", "warm", "cold", "remoteFrees", "drops"},
	}
	var rows []StealPolicyRow
	for _, name := range stealPolicyBenches {
		if len(o.Benches) > 0 && !slices.Contains(o.Benches, name) {
			continue
		}
		s := bench.Get(name)
		a := s.Default
		for _, pol := range core.StealPolicies() {
			rt := o.newRuntime(core.Config{
				Workers: workers, StealPolicy: pol, StackPages: 4096,
			})
			rt.Run(func(w *core.W) { s.Parallel(w, a) }) // warm
			st0 := rt.Stats()
			runtime.GC()
			summary := timeIt(o.Reps, func() {
				rt.Run(func(w *core.W) { s.Parallel(w, a) })
			})
			st := rt.Stats()
			reps := int64(o.Reps)
			forksPerRun := (st.Forks - st0.Forks) / reps
			if forksPerRun == 0 {
				forksPerRun = 1
			}
			row := StealPolicyRow{
				Kind:         "real",
				Benchmark:    name,
				Policy:       pol.String(),
				Workers:      workers,
				NsPerFork:    summary.Mean * 1e9 / float64(forksPerRun),
				Steals:       (st.Steals - st0.Steals) / reps,
				RemoteFrees:  (st.RemoteFrees - st0.RemoteFrees) / reps,
				RemoteDrains: (st.RemoteDrains - st0.RemoteDrains) / reps,
				ArenaDrops:   (st.ArenaDrops - st0.ArenaDrops) / reps,
			}
			rows = append(rows, row)
			t.Add(row.Kind, row.Benchmark, row.Policy, row.Workers,
				int64(row.NsPerFork), "", "", row.Steals, "", "",
				row.RemoteFrees, row.ArenaDrops)
		}
		var randomMakespan int64
		for _, pol := range core.StealPolicies() {
			r := sim.Run(sim.Config{
				Workers: simP, Strategy: core.StrategyFibril,
				StealPolicy: pol, // help-first engine: WorkFirst stays false
			}, s.Tree(a))
			if pol == core.StealRandom {
				randomMakespan = r.Makespan
			}
			speedup := 0.0
			if r.Makespan > 0 {
				speedup = float64(randomMakespan) / float64(r.Makespan)
			}
			row := StealPolicyRow{
				Kind:            "sim",
				Benchmark:       name,
				Policy:          pol.String(),
				Workers:         simP,
				Makespan:        r.Makespan,
				SpeedupVsRandom: speedup,
				Steals:          r.Steals,
				WarmSteals:      r.WarmSteals,
				ColdSteals:      r.ColdSteals,
			}
			rows = append(rows, row)
			t.Add(row.Kind, row.Benchmark, row.Policy, row.Workers, "",
				row.Makespan, floatCell(row.SpeedupVsRandom), row.Steals,
				row.WarmSteals, row.ColdSteals, "", "")
		}
	}
	return rows, t
}

func floatCell(x float64) string {
	if x == 0 {
		return ""
	}
	return fmt.Sprintf("%.2f", x)
}
