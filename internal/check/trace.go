package check

import (
	"fibril/internal/core"
	"fibril/internal/trace"
)

// Trace reconciliation: the streaming event path (internal/trace rings →
// sink) and the counter path (per-slot shards → Stats) observe the same
// scheduler actions through different machinery, so at quiescence they
// must tell the same story. Every event site pairs with a counter
// increment, which gives exact flow equalities rather than bounds.

// TraceSummary condenses a recorded event stream to what reconciliation
// needs: per-kind counts and the page totals carried in event args.
type TraceSummary struct {
	Counts         []int64 // events by kind, indexed by trace.Kind
	UnmappedPages  int64   // sum of KindUnmap args
	ReclaimedPages int64   // sum of KindReclaim args
	Dropped        int64   // events the recorder discarded at its cap
}

// SummarizeTrace folds a recorder's events into a TraceSummary.
func SummarizeTrace(rec *trace.Recorder) TraceSummary {
	ts := TraceSummary{Counts: make([]int64, trace.NumKinds()), Dropped: rec.Dropped()}
	for _, e := range rec.Events() {
		ts.Counts[e.Kind]++
		switch e.Kind {
		case trace.KindUnmap:
			ts.UnmappedPages += e.Arg
		case trace.KindReclaim:
			ts.ReclaimedPages += e.Arg
		}
	}
	return ts
}

// reconcileTrace asserts the event stream ↔ Stats equalities on a
// violations collector. A lossy stream (Dropped > 0) cannot reconcile
// and is skipped — the recorder's cap, not the runtime, broke the count.
func (v *violations) reconcileTrace(ts TraceSummary, st core.Stats) {
	if ts.Counts == nil || ts.Dropped > 0 {
		return
	}
	count := func(k trace.Kind) int64 { return ts.Counts[k] }
	eq := func(k trace.Kind, got, want int64, counter string) {
		if got != want {
			v.failf("trace %v events=%d != Stats.%s=%d", k, got, counter, want)
		}
	}
	eq(trace.KindFork, count(trace.KindFork), st.Forks, "Forks")
	eq(trace.KindSteal, count(trace.KindSteal), st.Steals, "Steals")
	eq(trace.KindSuspend, count(trace.KindSuspend), st.Suspends, "Suspends")
	eq(trace.KindResume, count(trace.KindResume), st.Resumes, "Resumes")
	eq(trace.KindJoinWait, count(trace.KindJoinWait), st.Suspends, "Suspends")
	eq(trace.KindUnmap, count(trace.KindUnmap), st.Unmaps, "Unmaps")
	eq(trace.KindReclaim, count(trace.KindReclaim), st.CeilingHits, "CeilingHits")
	// Start/end pairs exist exactly for base-thief steals; inline steals
	// (TBB joins) run on the joiner's own stack without them.
	base := st.Steals - st.RestrictedSteals
	eq(trace.KindTaskStart, count(trace.KindTaskStart), base, "Steals-RestrictedSteals")
	eq(trace.KindTaskEnd, count(trace.KindTaskEnd), base, "Steals-RestrictedSteals")
	// Job lifecycle: every admitted root emits exactly one start and one
	// done event (roots never emit task start/end — that is what keeps the
	// base-steal equality above alive under concurrent submission), and
	// admitted == completed at quiescence.
	eq(trace.KindJobStart, count(trace.KindJobStart), st.JobsCompleted, "JobsCompleted")
	eq(trace.KindJobDone, count(trace.KindJobDone), st.JobsCompleted, "JobsCompleted")
	if ts.UnmappedPages != st.UnmappedPages {
		v.failf("trace unmap args sum=%d != Stats.UnmappedPages=%d", ts.UnmappedPages, st.UnmappedPages)
	}
	if ts.ReclaimedPages != st.ReclaimedPages {
		v.failf("trace reclaim args sum=%d != Stats.ReclaimedPages=%d", ts.ReclaimedPages, st.ReclaimedPages)
	}
}

// ReconcileTrace is the standalone form of the oracle for callers outside
// the harness (cmd tests reconcile exported traces with it).
func ReconcileTrace(ts TraceSummary, st core.Stats) error {
	v := &violations{label: "trace-reconcile"}
	v.reconcileTrace(ts, st)
	return v.err()
}
