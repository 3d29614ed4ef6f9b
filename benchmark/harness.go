package main

import (
	"fmt"
	"slices"
	"time"

	"fibril/internal/core"
	"fibril/internal/trace"
)

// env is what a workload is run with. The runtime under test sees none of
// it: it receives only the inputs generated from seed.
type env struct {
	sz      sizes
	seed    uint64
	seconds float64 // how long to measure for
	// traced attaches a MetricsSink to the runtime and makes the
	// workload's own closures stamp span boundaries. End-to-end numbers
	// are only ever taken with traced false.
	traced bool
	// badOp, when >= 0, corrupts the expected value of that operation, so
	// a test can see a wrong checksum counted as a failed operation.
	badOp int
	// spanDir is where the traced run leaves its span dump.
	spanDir string
}

// config is the runtime configuration every workload uses: the defaults
// (Fibril, THE deque, random steal, sharded pool, sharded intake).
func (e env) config() core.Config {
	c := core.Config{Workers: workers()}
	if e.traced {
		c.Sink = trace.NewMetricsSink()
	}
	return c
}

// value is one measured number with its unit and the number of samples
// behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func val(v float64, unit string, n int) value { return value{Value: v, Unit: unit, N: n} }

// result is what one workload (or the traced run) reports.
type result struct {
	Workload  string           `json:"workload"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Errors    []string         `json:"errors,omitempty"` // first few failures, for the report
	E2E       map[string]value `json:"e2e,omitempty"`    // gated; untraced runs only
	Info      map[string]value `json:"info,omitempty"`   // reported, never gated
	Layer     map[string]value `json:"layer,omitempty"`  // per-layer metrics
	Spans     []span           `json:"-"`
}

func newResult(name string) result {
	return result{Workload: name, E2E: map[string]value{}, Info: map[string]value{}, Layer: map[string]value{}}
}

// fail records failed operations and keeps the first few reasons.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// epoch anchors every stamp of the process; now is nanoseconds since it
// (monotonic).
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// timedSetups runs setup e.sz.setups times and returns the last state with
// the median set-up time. Set-up covers input generation, serial reference
// values and a warm-up rep, which includes NewRuntime (and Start and Close
// where the workload serves). A state holds inputs only — every rep makes
// its own runtime — so there is nothing to tear down between set-ups.
func timedSetups[S any](e env, setup func(env) S) (S, value) {
	var st S
	secs := make([]float64, e.sz.setups)
	for i := range secs {
		t0 := time.Now()
		st = setup(e)
		secs[i] = time.Since(t0).Seconds()
	}
	return st, val(median(secs), "s", len(secs))
}

// conserved checks the laws that must hold on a closed (idle) runtime and
// returns what was violated, or "".
func conserved(rt *core.Runtime) string {
	st := rt.Stats()
	switch {
	case st.JobsSubmitted != st.JobsCompleted:
		return fmt.Sprintf("JobsSubmitted %d != JobsCompleted %d", st.JobsSubmitted, st.JobsCompleted)
	case st.Suspends != st.Resumes:
		return fmt.Sprintf("Suspends %d != Resumes %d", st.Suspends, st.Resumes)
	case rt.QueuedTasks() != 0:
		return fmt.Sprintf("QueuedTasks %d after Close", rt.QueuedTasks())
	}
	return ""
}

// throughput sets ops_per_s to the median of the reps' rates, and reports
// how far the reps of this one run were spread.
func (r *result) throughput(rates []float64) {
	r.E2E["ops_per_s"] = val(median(rates), "1/s", len(rates))
	r.Info["ops_rep_spread_pct"] = val(relSpread(rates)*100, "%", len(rates))
}

// latencyMetrics fills the latency end-to-end metrics from per-operation
// latencies in nanoseconds (sorted in place) and the share of attempted
// operations that completed within slo. Operations that failed are not in
// ns and so miss the limit. It also reports the highest percentile the
// sample supports.
func (r *result) latencyMetrics(ns []int64, slo time.Duration) {
	if len(ns) == 0 {
		return
	}
	slices.Sort(ns)
	us := func(p float64) float64 { return float64(percentile(ns, p)) / 1e3 }
	r.E2E["lat_p50_us"] = val(us(50), "us", len(ns))
	r.E2E["lat_p90_us"] = val(us(90), "us", len(ns))
	within, _ := slices.BinarySearch(ns, int64(slo)+1)
	r.E2E["slo_share"] = val(float64(within)/float64(r.Attempted), "share", int(r.Attempted))
	if p, ok := highestSupported(len(ns)); ok && p > 90 {
		r.Info[fmt.Sprintf("lat_p%g_us", p)] = val(us(p), "us", len(ns))
	}
	r.Info["lat_max_us"] = val(float64(ns[len(ns)-1])/1e3, "us", len(ns))
}

// span is one traced interval. Spans of one operation share Op; Parent
// names the enclosing span of the same Op ("" for the operation itself).
// A span's self time is its duration minus its children's.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// jobStamps are the instants of one submitted job's life, taken by the
// benchmark around its calls into the runtime and inside its own root.
// The root's two are only taken in a traced run.
type jobStamps struct{ submit, submitted, rootStart, rootEnd, done int64 }

// spans lays the stamps out as the job's span, from when it was due, and
// its children.
func (st jobStamps) spans(op int, due int64) []span {
	return []span{
		{Op: op, Name: "job", Start: due, End: st.done},
		{Op: op, Name: "core.intake.submit", Parent: "job", Start: st.submit, End: st.submitted},
		{Op: op, Name: "core.dispatch.wait", Parent: "job", Start: st.submitted, End: max(st.rootStart, st.submitted)},
		{Op: op, Name: "core.run.root", Parent: "job", Start: st.rootStart, End: st.rootEnd},
		{Op: op, Name: "core.complete.wake", Parent: "job", Start: st.rootEnd, End: st.done},
	}
}

// jobLayers collects the four waits of a job's life over a traced run.
type jobLayers struct{ submit, wait, root, wake []int64 }

func (l *jobLayers) add(st jobStamps) {
	l.submit = append(l.submit, st.submitted-st.submit)
	// A worker can start the root before Submit has returned.
	l.wait = append(l.wait, max(st.rootStart-st.submitted, 0))
	l.root = append(l.root, st.rootEnd-st.rootStart)
	l.wake = append(l.wake, st.done-st.rootEnd)
}

func (l *jobLayers) report(r *result) {
	r.Layer["core.intake.submit_ns"] = p50ns(l.submit)
	r.Layer["core.dispatch.wait_ns"] = p50ns(l.wait)
	r.Layer["core.run.root_ns"] = p50ns(l.root)
	r.Layer["core.complete.wake_ns"] = p50ns(l.wake)
}

// p50ns is the median of durations as a per-layer value. Stamps are whole
// nanoseconds, so many samples tie at the median; the value is
// interpolated inside that one-nanosecond bin by the share of the tied
// samples that lie below the middle rank.
func p50ns(d []int64) value {
	if len(d) == 0 {
		return val(0, "ns", 0)
	}
	slices.Sort(d)
	m := percentile(d, 50)
	below, _ := slices.BinarySearch(d, m)
	upto, _ := slices.BinarySearch(d, m+1)
	within := (float64(len(d))/2 - float64(below)) / float64(upto-below)
	return val(float64(m)-0.5+within, "ns", len(d))
}
