package trace

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// maxBuckets bounds a histogram's bucket count (bounds plus overflow).
const maxBuckets = 32

// Histogram is a fixed-boundary histogram safe for concurrent Observe and
// Snapshot: bucket counters are atomics, boundaries are immutable after
// construction. Values land in the first bucket whose upper bound is >=
// the value; values beyond the last bound land in the overflow bucket.
type Histogram struct {
	unit   string
	bounds []int64
	counts [maxBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// newHistogram builds a histogram over the given inclusive upper bounds
// (must be ascending, at most maxBuckets-1 of them).
func newHistogram(unit string, bounds []int64) *Histogram {
	if len(bounds) >= maxBuckets {
		panic(fmt.Sprintf("trace: %d histogram bounds, max %d", len(bounds), maxBuckets-1))
	}
	return &Histogram{unit: unit, bounds: bounds}
}

// durationBounds covers 512 ns to ~8.6 s in powers of four — wide enough
// for a single steal sweep and for a join that waits out a whole phase,
// at 12 buckets so a snapshot stays table-sized.
func durationBounds() []int64 {
	bounds := make([]int64, 0, 12)
	for ns := int64(512); ns <= 1<<33; ns <<= 2 {
		bounds = append(bounds, ns)
	}
	return bounds
}

// latencyBounds covers request (Job submission-to-completion) latencies
// from 1 µs to ~2.1 s in powers of two — finer-grained than the
// powers-of-four durationBounds, because serving workloads read p50/p99/
// p999 off this histogram and a 4× bucket would smear the tail.
func latencyBounds() []int64 {
	bounds := make([]int64, 0, 22)
	for ns := int64(1 << 10); ns <= 1<<31; ns <<= 1 {
		bounds = append(bounds, ns)
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Snapshot captures the histogram's current state. Safe concurrently with
// Observe; the per-bucket counts are individually exact and collectively
// a near-point-in-time view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Unit:   h.unit,
		Bounds: h.bounds,
		Counts: make([]int64, len(h.bounds)+1),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range s.Counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's state.
type HistogramSnapshot struct {
	Unit   string  // "ns" for latencies, "" for dimensionless sizes
	Bounds []int64 // inclusive upper bounds; Counts has one extra overflow bucket
	Counts []int64
	Sum    int64
	Count  int64
}

// Mean returns the average observed value (0 for an empty histogram).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper bound of the bucket holding the ⌈q·Count⌉-th smallest
// observation, or the last bound for the overflow bucket. 0 for an empty
// histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// String renders a compact one-line summary.
func (s HistogramSnapshot) String() string {
	unit := s.Unit
	if unit == "ns" {
		return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v",
			s.Count, time.Duration(s.Mean()), time.Duration(s.Quantile(0.5)), time.Duration(s.Quantile(0.99)))
	}
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99))
}

// MetricsSink aggregates the event stream into latency histograms and
// per-kind counters, cheap enough to leave attached on production-shaped
// runs and to read mid-execution (Runtime.Snapshot). It masks the event
// stream down to the kinds it consumes — the fork hot path never pays for
// it — and declines timestamps, so the sites it does observe cost a ring
// append and an atomic add.
type MetricsSink struct {
	stealLatency *Histogram // KindSteal.Dur: winning steal-sweep time
	joinWait     *Histogram // KindJoinWait.Dur: time a joiner stayed parked
	taskRun      *Histogram // KindTaskEnd.Dur: stolen-task run time
	jobLatency   *Histogram // KindJobDone.Dur: Job submit-to-completion time
	events       [numKinds]atomic.Int64
}

// NewMetricsSink returns an empty metrics aggregator.
func NewMetricsSink() *MetricsSink {
	return &MetricsSink{
		stealLatency: newHistogram("ns", durationBounds()),
		joinWait:     newHistogram("ns", durationBounds()),
		taskRun:      newHistogram("ns", durationBounds()),
		jobLatency:   newHistogram("ns", latencyBounds()),
	}
}

// EventMask narrows the stream to the kinds the histograms consume.
func (m *MetricsSink) EventMask() uint64 {
	return MaskOf(KindSteal, KindJoinWait, KindTaskEnd, KindUnmap, KindReclaim, KindJobDone)
}

// TimestampFree declines per-event clock reads; the histograms only use
// duration payloads, which the event sites measure themselves.
func (m *MetricsSink) TimestampFree() bool { return true }

// Consume implements Sink.
func (m *MetricsSink) Consume(batch []Event) {
	for _, e := range batch {
		m.events[e.Kind].Add(1)
		switch e.Kind {
		case KindSteal:
			m.stealLatency.Observe(int64(e.Dur))
		case KindJoinWait:
			m.joinWait.Observe(int64(e.Dur))
		case KindTaskEnd:
			m.taskRun.Observe(int64(e.Dur))
		case KindJobDone:
			m.jobLatency.Observe(int64(e.Dur))
		}
	}
}

// MetricsSnapshot is a point-in-time copy of a MetricsSink's aggregates.
type MetricsSnapshot struct {
	StealLatency HistogramSnapshot // winning steal-sweep time (ns)
	JoinWait     HistogramSnapshot // time joiners stayed parked (ns)
	TaskRun      HistogramSnapshot // stolen-task run time (ns)
	JobLatency   HistogramSnapshot // Job submit-to-completion latency (ns)
	Events       map[string]int64  // observed event counts by kind name
}

// Snapshot captures the sink's aggregates. Safe to call while the runtime
// is executing.
func (m *MetricsSink) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		StealLatency: m.stealLatency.Snapshot(),
		JoinWait:     m.joinWait.Snapshot(),
		TaskRun:      m.taskRun.Snapshot(),
		JobLatency:   m.jobLatency.Snapshot(),
		Events:       map[string]int64{},
	}
	for k := 0; k < numKinds; k++ {
		if n := m.events[k].Load(); n > 0 {
			s.Events[Kind(k).String()] = n
		}
	}
	return s
}

// String renders a multi-line summary of the snapshot.
func (s MetricsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steal-latency: %v\n", s.StealLatency)
	fmt.Fprintf(&b, "join-wait:     %v\n", s.JoinWait)
	fmt.Fprintf(&b, "task-run:      %v\n", s.TaskRun)
	fmt.Fprintf(&b, "job-latency:   %v", s.JobLatency)
	return b.String()
}
