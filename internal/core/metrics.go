package core

import "fibril/internal/trace"

// Gauges are instantaneous runtime readings — unlike the monotonic Stats
// counters, each is a racy-but-coherent point sample of live scheduler
// and memory state, meaningful mid-execution (and all zero at
// quiescence).
type Gauges struct {
	// ResidentPages is the simulated resident set right now, in pages.
	ResidentPages int64
	// QueuedTasks is the number of published tasks sitting in worker deques
	// — what thieves can see. A running worker may hold more privately
	// until its next Fork or Join; at quiescence the count is exact.
	QueuedTasks int
	// ParkedThieves is the number of worker slots free on the park lot —
	// given back by thieves that parked, and not yet given out (idle
	// capacity).
	ParkedThieves int
	// StacksInUse is the number of simulated stacks currently checked out
	// of the pool.
	StacksInUse int
	// InflightJobs is the number of admitted, not-yet-completed Jobs on
	// the serving lifecycle.
	InflightJobs int
	// QueuedJobs is the number of Jobs awaiting admission plus admitted
	// roots not yet picked up by a worker.
	QueuedJobs int
}

// Metrics is the live introspection snapshot returned by
// Runtime.Snapshot: the cumulative counters, the instantaneous gauges,
// and — when a trace.MetricsSink is attached — its latency histograms.
type Metrics struct {
	Stats  Stats
	Gauges Gauges
	// Trace holds the attached MetricsSink's histogram aggregates; nil
	// when the runtime's sink is not a *trace.MetricsSink.
	Trace *trace.MetricsSnapshot
}

// Snapshot captures the runtime's live metrics. Unlike the quiescence
// accessors in inspect.go it is safe to call at any time, including
// concurrently with Run: every source it reads — counter shards, pool
// and address-space counters, deque length estimates, the park lot, the
// metrics sink's histogram buckets — is individually synchronized, so the
// snapshot is a coherent point sample of each, though not a single atomic
// cut across all of them. The per-fork counters in Stats trail the running
// workers by a bounded amount (see Stats).
func (rt *Runtime) Snapshot() Metrics {
	m := Metrics{
		Stats: rt.Stats(),
		Gauges: Gauges{
			ResidentPages: rt.as.RSSPages(),
			QueuedTasks:   rt.QueuedTasks(),
			ParkedThieves: rt.ParkedThieves(),
			StacksInUse:   rt.pool.InUse(),
			InflightJobs:  rt.InflightJobs(),
			QueuedJobs:    rt.QueuedJobs(),
		},
	}
	if rt.metrics != nil {
		snap := rt.metrics.Snapshot()
		m.Trace = &snap
	}
	return m
}
