package exper

import (
	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/table"
	"fibril/internal/vm"
	"slices"
)

// MemoryRow is one measurement of the memory-pressure-engine experiment,
// shaped for machine consumption (-json): eager vs coalesced unmap on
// RSS, madvise traffic and wall time, plus the engine counters that make
// the batching and ceiling behaviour auditable run over run.
type MemoryRow struct {
	Benchmark      string  `json:"benchmark"`
	Mode           string  `json:"mode"` // eager | coalesced | ceiling
	Workers        int     `json:"p"`
	UnmapBatch     int     `json:"unmap_batch"`
	CeilingPages   int64   `json:"ceiling_pages"`
	NsPerOp        float64 `json:"ns_op"`
	MaxRSSPages    int64   `json:"max_rss_pages"`
	MadviseCalls   int64   `json:"madvise_calls"`
	Unmaps         int64   `json:"unmaps"`
	Suspends       int64   `json:"suspends"`
	UnmapBatches   int64   `json:"unmap_batches"`
	ReclaimCancels int64   `json:"reclaim_cancels"`
	ReclaimSkips   int64   `json:"reclaim_skips"`
	CeilingHits    int64   `json:"ceiling_hits"`
	ReclaimedPages int64   `json:"reclaimed_pages"`
	StacksCreated  int     `json:"stacks_created"`
	EnvelopePages  int64   `json:"envelope_pages"`
	WithinEnvelope bool    `json:"within_envelope"`
}

// memoryBenches is the workload set. The unmap path only runs on
// join-side suspensions, which need live steals; on a 1-CPU host (where
// workers are interleaved goroutines) fib's pure fork/join grain is the
// one Table-1 workload whose steal rate survives — the others suspend
// zero-to-twice per run there, which would only add noise rows.
var memoryBenches = []string{"fib"}

// memoryIters runs the workload several times inside each timed rep so
// the per-rep suspend (and hence madvise) counts are large enough that
// the eager-vs-coalesced ratio is signal, not scheduling luck.
const memoryIters = 5

// memoryMode is one engine configuration of the experiment matrix.
type memoryMode struct {
	name    string
	batch   int
	ceiling int64
}

// Memory measures the memory-pressure engine on the real runtime: for
// each benchmark it runs the Fibril strategy with eager per-suspend
// unmap, with coalesced unmap (UnmapBatch=8), and with coalescing plus a
// soft RSS ceiling, reporting max RSS, madvise-call counts and wall
// time. The (D+1)(S1p+1) per-stack envelope from the paper's space bound
// is checked on every row: StacksCreated stacks, each within its
// envelope, bound total stack RSS regardless of when madvise runs.
func Memory(o Options) ([]MemoryRow, *table.Table) {
	o = o.withDefaults()
	workers := o.Workers
	if workers == 0 {
		// The acceptance measurement is the 4-worker point: enough
		// thieves that suspensions (and hence unmaps) are plentiful.
		workers = 4
	}
	t := &table.Table{
		Title: "Memory engine: eager vs coalesced unmap (real runtime)",
		Header: []string{"benchmark", "mode", "P", "batch", "ns/op",
			"maxRSS", "madvise", "unmaps", "batches", "cancels", "skips",
			"ceilHits", "reclaimed", "stacks", "envelope", "ok"},
	}
	modes := []memoryMode{
		{name: "eager"},
		{name: "coalesced", batch: 8},
		{name: "ceiling", batch: 8, ceiling: 2048},
	}
	var rows []MemoryRow
	for _, name := range memoryBenches {
		if len(o.Benches) > 0 && !slices.Contains(o.Benches, name) {
			continue
		}
		s := bench.Get(name)
		a := s.Default
		// The per-stack envelope (D+1)(S1p+1) comes from the program's
		// serial stack depth S1 (pages) and Fibril depth D, both exact
		// properties of the invocation tree.
		m := invoke.Analyze(s.Tree(a))
		s1p := int64(vm.PageAlign(int(m.MaxStackBytes)))
		perStack := int64(m.FibrilDepth+1) * (s1p + 1)
		for _, mode := range modes {
			rt := o.newRuntime(core.Config{
				Workers: workers, Strategy: core.StrategyFibril,
				StackPages: 4096, UnmapBatch: mode.batch,
				MaxResidentPages: mode.ceiling,
			})
			summary := timeIt(o.Reps, func() {
				for i := 0; i < memoryIters; i++ {
					rt.Run(func(w *core.W) { s.Parallel(w, a) })
				}
			})
			// Counters accumulate across the reps timed runs on one
			// Runtime; report per-rep values (each covering memoryIters
			// workload iterations). MaxRSS and StacksCreated are
			// high-water marks, valid as-is.
			st := rt.Stats()
			reps := int64(o.Reps)
			envelope := int64(st.StacksCreated) * perStack
			row := MemoryRow{
				Benchmark:      name,
				Mode:           mode.name,
				Workers:        workers,
				UnmapBatch:     mode.batch,
				CeilingPages:   mode.ceiling,
				NsPerOp:        summary.Mean * 1e9 / memoryIters,
				MaxRSSPages:    st.VM.MaxRSSPages,
				MadviseCalls:   st.VM.MadviseCalls / reps,
				Unmaps:         st.Unmaps / reps,
				Suspends:       st.Suspends / reps,
				UnmapBatches:   st.UnmapBatches / reps,
				ReclaimCancels: st.ReclaimCancels / reps,
				ReclaimSkips:   st.ReclaimSkips / reps,
				CeilingHits:    st.CeilingHits / reps,
				ReclaimedPages: st.ReclaimedPages / reps,
				StacksCreated:  st.StacksCreated,
				EnvelopePages:  envelope,
				WithinEnvelope: st.VM.MaxRSSPages <= envelope,
			}
			rows = append(rows, row)
			t.Add(row.Benchmark, row.Mode, row.Workers, row.UnmapBatch,
				int64(row.NsPerOp), row.MaxRSSPages, row.MadviseCalls,
				row.Unmaps, row.UnmapBatches, row.ReclaimCancels,
				row.ReclaimSkips, row.CeilingHits, row.ReclaimedPages,
				row.StacksCreated, row.EnvelopePages, row.WithinEnvelope)
		}
	}
	return rows, t
}
