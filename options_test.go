package fibril_test

import (
	"errors"
	"testing"

	"fibril"
)

func optFib(w *fibril.W, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var fr fibril.Frame
	w.Init(&fr)
	var x, y int64
	w.Fork(&fr, func(w *fibril.W) { optFib(w, n-1, &x) })
	w.Call(func(w *fibril.W) { optFib(w, n-2, &y) })
	w.Join(&fr)
	*out = x + y
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
	if _, err := rt.RunErr(func(w *fibril.W) { optFib(w, 10, &got) }); err != nil || got != 55 {
		t.Fatalf("runtime unusable after panic: fib(10)=%d err=%v", got, err)
	}
}

func TestSnapshotQuickstart(t *testing.T) {
	ms := fibril.NewMetricsSink()
	rt := fibril.New(fibril.Config{Workers: 4, Sink: ms})
	var got int64
	rt.Run(func(w *fibril.W) { optFib(w, 20, &got) })
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
