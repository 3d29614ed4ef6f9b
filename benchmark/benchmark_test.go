package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func smokeEnv(t *testing.T) env {
	return env{sz: smokeSizes, seed: 7, seconds: 0.05, badOp: -1, spanDir: t.TempDir()}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json the same
// list, in the same order, within the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is outside the contract", u, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "")
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		check(m.Name, m.Unit)
		got := bj.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, spec.go %+v", i, got, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		check(l.Name, l.Unit)
		got := bj.PerLayer[i]
		if got.Name != l.Name || got.Unit != l.Unit || got.Better != l.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, spec.go {%s %s %s}", i, got, l.Name, l.Unit, l.Better)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	// The driver makes 4 + 22 x workloads runs within 3420 seconds.
	if runs := 4 + 22*len(workloads); float64(runs)*(float64(bj.RunSeconds)+10) > 3420 {
		t.Errorf("%d runs of %d s (+10 s set-up and build each) do not fit 3420 s", runs, bj.RunSeconds)
	}
}

// TestSmoke runs all four workloads and the traced run once at tiny sizes
// and checks the report: every name of BENCHMARK.json exactly once where
// it belongs, with a unit and a bound, and operations that add up.
func TestSmoke(t *testing.T) {
	bj := readBenchmarkJSON(t)
	e := smokeEnv(t)
	var report bytes.Buffer
	for _, w := range workloads {
		res := w.run(e)
		if !res.correct(false) {
			t.Errorf("%s: not correct: attempted=%d failed=%d errors=%v e2e=%v", w.Name, res.Attempted, res.Failed, res.Errors, res.E2E)
		}
		// Every operation either completed, and then has a latency sample, or failed.
		if completed := int64(res.E2E["lat_p50_us"].N); res.Attempted != completed+res.Failed {
			t.Errorf("%s: attempted %d != completed %d + failed %d", w.Name, res.Attempted, completed, res.Failed)
		}
		for _, m := range endToEnd {
			if v := res.E2E[m.Name]; v.Value <= 0 || v.N < 1 {
				t.Errorf("%s %s = %+v, want a positive value with a sample count", w.Name, m.Name, v)
			}
		}
		printWorkload(&report, res)
	}
	layers := runLayers(e)
	pooled := runPooled(e)
	for k, v := range pooled.Layer {
		layers.Layer[k] = v
	}
	if !layers.correct(true) || !pooled.ok() {
		t.Errorf("traced run not correct: layers failed=%d errors=%v; pooled failed=%d", layers.Failed, layers.Errors, pooled.Failed)
	}
	printLayers(&report, layers)
	for _, w := range workloads {
		if _, err := os.Stat(e.spanDir + "/" + w.Name + ".json"); err != nil {
			t.Errorf("span dump of %s: %v", w.Name, err)
		}
	}

	count := map[string]int{}
	for _, line := range strings.Split(report.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "workload":
			count["workload "+strings.TrimSuffix(f[1], ":")]++
		case len(f) >= 5 && f[0] == "e2e":
			count["e2e "+f[1]+" "+f[2]]++
			if f[4] == "" || !strings.Contains(line, "bound ") {
				t.Errorf("line without unit or bound: %q", line)
			}
		case len(f) >= 4 && f[0] == "layer":
			count["layer "+f[1]]++
			if f[2] == "MISSING" {
				t.Errorf("per-layer metric not measured: %q", line)
			}
		}
	}
	want := 0
	expect := func(key string) {
		want++
		if count[key] != 1 {
			t.Errorf("%q appears %d times in the report, want once", key, count[key])
		}
	}
	for _, w := range bj.Workloads {
		expect("workload " + w.Name)
		for _, m := range bj.EndToEnd {
			expect("e2e " + w.Name + " " + m.Name)
		}
	}
	for _, l := range bj.PerLayer {
		expect("layer " + l.Name)
	}
	if len(count) != want {
		t.Errorf("report has %d distinct workload/metric rows, BENCHMARK.json names %d", len(count), want)
	}
	if t.Failed() {
		t.Log(report.String())
	}
}

// TestWrongChecksumIsAFailedOperation corrupts the expected value of one
// operation of each workload.
func TestWrongChecksumIsAFailedOperation(t *testing.T) {
	for _, w := range workloads {
		e := smokeEnv(t)
		e.badOp = 1
		res := w.run(e)
		if res.Failed != 1 || res.correct(false) {
			t.Errorf("%s: failed=%d correct=%v after one injected wrong checksum, want 1 and false (errors %v)",
				w.Name, res.Failed, res.correct(false), res.Errors)
		}
		if completed := int64(res.E2E["lat_p50_us"].N); res.Attempted != completed+1 {
			t.Errorf("%s: attempted %d != completed %d + 1", w.Name, res.Attempted, completed)
		}
	}
}

// TestDriverLine checks the last-line JSON object has exactly the
// contract's keys and exactly the metrics of the run's kind.
func TestDriverLine(t *testing.T) {
	res := runFib(smokeEnv(t))
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(driverLine(res, false)), &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("driver line lacks %q", k)
		}
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || len(metrics) != len(endToEnd) {
		t.Errorf("driver line has %d keys and %d metrics, want 4 and %d", len(line), len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got := metrics[m.Name]; len(got) != 2 || got["unit"] != m.Unit {
			t.Errorf("metric %s = %v, want a value and unit %q", m.Name, got, m.Unit)
		}
	}
}

// fakeClock is a clock the test moves: every Sleep overshoots by stall.
type fakeClock struct {
	t, stall int64
}

func (c *fakeClock) Now() int64     { return c.t }
func (c *fakeClock) Sleep(ns int64) { c.t += ns + c.stall; c.stall = 0 }
func (c *fakeClock) Yield()         { c.t += 1000 }

// TestOpenLoopChargesAStallToTheRequestsDue drives the open-loop pacer
// with a generator that oversleeps once by 10 ms: every request due in the
// gap must still be submitted, late, with its lateness measured from its
// own due time — not dropped, and not re-timed from when the generator
// woke up.
func TestOpenLoopChargesAStallToTheRequestsDue(t *testing.T) {
	const gap = int64(500 * time.Microsecond)
	const stall = int64(10 * time.Millisecond)
	due := make([]int64, 100)
	for i := range due {
		due[i] = int64(i+1) * gap
	}
	clk := &fakeClock{stall: stall}
	lateness := make([]int64, 0, len(due))
	pace(clk, due, func(i int) {
		if i != len(lateness) {
			t.Fatalf("request %d submitted out of order after %d", i, len(lateness))
		}
		lateness = append(lateness, clk.Now()-due[i])
		clk.t += 2000 // a Submit takes time too
	})
	if len(lateness) != len(due) {
		t.Fatalf("%d of %d requests submitted", len(lateness), len(due))
	}
	// The first Sleep overshoots by 10 ms, during which 20 requests came due.
	late := 0
	for i, l := range lateness {
		if l < 0 {
			t.Errorf("request %d submitted %d ns before it was due", i, -l)
		}
		if l > int64(time.Millisecond) {
			late++
		}
	}
	if lateness[0] < stall-sleepSlack || late < 18 || late > 22 {
		t.Errorf("first request %d ns late, %d requests over 1 ms late; want the 10 ms stall charged to about 20 requests", lateness[0], late)
	}
	if last := lateness[len(lateness)-1]; last > sleepSlack+gap {
		t.Errorf("last request still %d ns late: the schedule itself was shifted by the stall", last)
	}
}
