package fibril_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"fibril"
)

func parfib(w *fibril.W, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var fr fibril.Frame
	w.Init(&fr)
	var x, y int64
	w.Fork(&fr, func(w *fibril.W) { parfib(w, n-1, &x) })
	w.Call(func(w *fibril.W) { parfib(w, n-2, &y) })
	w.Join(&fr)
	*out = x + y
}

func TestRunQuickstart(t *testing.T) {
	var result int64
	stats := fibril.Run(func(w *fibril.W) { parfib(w, 20, &result) })
	if result != 6765 {
		t.Errorf("parfib(20) = %d, want 6765", result)
	}
	if stats.Forks == 0 {
		t.Error("no forks recorded")
	}
}

func TestCElisionRule(t *testing.T) {
	// The serial elision — Fork replaced by Call, Init/Join dropped —
	// must compute the same value (§4.1).
	var elided func(w *fibril.W, n int, out *int64)
	elided = func(w *fibril.W, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var x, y int64
		w.Call(func(w *fibril.W) { elided(w, n-1, &x) })
		w.Call(func(w *fibril.W) { elided(w, n-2, &y) })
		*out = x + y
	}
	var parallel, serial int64
	fibril.Run(func(w *fibril.W) { parfib(w, 18, &parallel) })
	fibril.New(fibril.Config{Workers: 1}).Run(func(w *fibril.W) { elided(w, 18, &serial) })
	if parallel != serial {
		t.Errorf("parallel %d != serial elision %d", parallel, serial)
	}
}

func TestAllExportedStrategiesRun(t *testing.T) {
	// Strategies() is the exported constants and nothing else, in
	// presentation order: a strategy only the simulator models has no
	// place in the list the real runtime schedules from.
	want := []fibril.Strategy{fibril.Fibril, fibril.FibrilNoUnmap, fibril.CilkPlus, fibril.TBB}
	if got := fibril.Strategies(); !slices.Equal(got, want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	for _, s := range want {
		rt := fibril.New(fibril.Config{Workers: 4, Strategy: s})
		var n atomic.Int64
		rt.Run(func(w *fibril.W) {
			var fr fibril.Frame
			w.Init(&fr)
			for i := 0; i < 16; i++ {
				w.Fork(&fr, func(w *fibril.W) { n.Add(1) })
			}
			w.Join(&fr)
		})
		if n.Load() != 16 {
			t.Errorf("%v: completed %d of 16 children", s, n.Load())
		}
	}
}

func ExampleRun() {
	var result int64
	fibril.Run(func(w *fibril.W) { parfib(w, 10, &result) })
	fmt.Println(result)
	// Output: 55
}

func ExampleNew() {
	rt := fibril.New(fibril.Config{Workers: 4, Strategy: fibril.Fibril})
	var sum atomic.Int64
	rt.Run(func(w *fibril.W) {
		var fr fibril.Frame
		w.Init(&fr)
		for i := 1; i <= 4; i++ {
			i := i
			w.Fork(&fr, func(w *fibril.W) { sum.Add(int64(i)) })
		}
		w.Join(&fr)
	})
	fmt.Println(sum.Load())
	// Output: 10
}

// TestConfigSingleWorker pins the serial degenerate case: with one worker
// there is no thief, so the run must complete with zero steals and zero
// suspensions — the scheduler reduces to the C elision.
func TestConfigSingleWorker(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 1})
	var result int64
	stats := rt.Run(func(w *fibril.W) { parfib(w, 18, &result) })
	if result != 2584 {
		t.Fatalf("parfib(18) = %d, want 2584", result)
	}
	if stats.Steals != 0 || stats.Suspends != 0 {
		t.Errorf("P=1 run recorded steals=%d suspends=%d, want 0/0", stats.Steals, stats.Suspends)
	}
	if stats.Workers != 1 {
		t.Errorf("Stats.Workers = %d, want 1", stats.Workers)
	}
}

// TestConfigOversubscribed runs with more workers than GOMAXPROCS: the
// runtime must still produce the right answer (thieves time-slice).
func TestConfigOversubscribed(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 4
	rt := fibril.New(fibril.Config{Workers: workers})
	var result int64
	stats := rt.Run(func(w *fibril.W) { parfib(w, 20, &result) })
	if result != 6765 {
		t.Fatalf("parfib(20) with %d workers = %d, want 6765", workers, result)
	}
	if stats.Workers != workers {
		t.Errorf("Stats.Workers = %d, want %d", stats.Workers, workers)
	}
}

// TestPanicPropagatesFromRun pins the panic contract at the API boundary:
// a panic in a forked task resurfaces from Run as a *fibril.TaskPanic
// carrying the original value, errors.As can unwrap error values, and the
// runtime is reusable afterwards.
func TestPanicPropagatesFromRun(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 2})
	boom := errors.New("boom")
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rt.Run(func(w *fibril.W) {
			var fr fibril.Frame
			w.Init(&fr)
			w.Fork(&fr, func(*fibril.W) { panic(boom) })
			w.Join(&fr)
		})
	}()
	tp, ok := recovered.(*fibril.TaskPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *fibril.TaskPanic", recovered, recovered)
	}
	if tp.Value != boom {
		t.Errorf("TaskPanic.Value = %v, want %v", tp.Value, boom)
	}
	if !errors.Is(tp, boom) {
		t.Error("errors.Is(TaskPanic, boom) = false, want true")
	}
	// The runtime must have quiesced cleanly and be usable again.
	var result int64
	rt.Run(func(w *fibril.W) { parfib(w, 15, &result) })
	if result != 610 {
		t.Errorf("post-panic reuse: parfib(15) = %d, want 610", result)
	}
}

// TestPanicFromRootTask checks the root-task path: a panic that never
// crosses a Join still surfaces from Run wrapped in TaskPanic.
func TestPanicFromRootTask(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 2})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rt.Run(func(w *fibril.W) { panic("root boom") })
	}()
	tp, ok := recovered.(*fibril.TaskPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *fibril.TaskPanic", recovered, recovered)
	}
	if tp.Value != "root boom" {
		t.Errorf("TaskPanic.Value = %v, want \"root boom\"", tp.Value)
	}
}

func TestRunErr(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 2})
	boom := errors.New("boom")
	_, err := rt.RunErr(func(w *fibril.W) {
		var fr fibril.Frame
		w.Init(&fr)
		w.Fork(&fr, func(*fibril.W) { panic(boom) })
		w.Join(&fr)
	})
	if err == nil {
		t.Fatal("RunErr returned nil for a panicking task")
	}
	var tp *fibril.TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("RunErr error is %T, want *TaskPanic", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("TaskPanic does not unwrap to the panic value: %v", err)
	}
	// The runtime must remain usable after a recovered run.
	var got int64
	if _, err := rt.RunErr(func(w *fibril.W) { parfib(w, 10, &got) }); err != nil || got != 55 {
		t.Fatalf("runtime unusable after panic: fib(10)=%d err=%v", got, err)
	}
}

func TestSnapshotQuickstart(t *testing.T) {
	ms := fibril.NewMetricsSink()
	rt := fibril.New(fibril.Config{Workers: 4, Sink: ms})
	var got int64
	rt.Run(func(w *fibril.W) { parfib(w, 20, &got) })
	m := rt.Snapshot()
	if m.Stats.Forks == 0 {
		t.Fatal("Snapshot has no forks after a run")
	}
	if m.Trace == nil {
		t.Fatal("Snapshot.Trace nil with a MetricsSink attached")
	}
	if m.Trace.TaskRun.Count != m.Stats.Steals-m.Stats.RestrictedSteals {
		t.Fatalf("TaskRun.Count=%d, want Steals-RestrictedSteals=%d",
			m.Trace.TaskRun.Count, m.Stats.Steals-m.Stats.RestrictedSteals)
	}
}
