// Serving-intake benchmarks and the CI allocation gate for the Submit path
// (admission under one mutex, one root queue, pooled Jobs, wake-one
// parking): the testing.B counters and the hard allocs/op assertions CI
// enforces next to TestForkPathGate.
package fibril_test

import (
	"context"
	"errors"
	"testing"

	"fibril"
)

// noopRoot is the package-level tiny request body: its func value is
// static, so Submit's measured allocations are the intake path's own.
func noopRoot(*fibril.W) {}

// fib10Root is the small fork-join request body (~170 tasks), for the
// lanes where the root actually schedules work.
func fib10Root(w *fibril.W) {
	var out int64
	benchFib(w, 10, &out)
}

func benchFib(w *fibril.W, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var fr fibril.Frame
	w.Init(&fr)
	var a, b int64
	w.Fork(&fr, func(w *fibril.W) { benchFib(w, n-1, &a) })
	w.Call(func(w *fibril.W) { benchFib(w, n-2, &b) })
	w.Join(&fr)
	*out = a + b
}

// shedRuntime builds a runtime whose capacity is fully held by blocker
// jobs, so every further Submit resolves deterministically on the
// submitter's own goroutine (AdmitShed → ErrShed) — the pure submit-side
// cost with no scheduling in the measurement. The returned release
// function unblocks the blockers and closes the runtime.
func shedRuntime(tb testing.TB) (*fibril.Runtime, func()) {
	tb.Helper()
	const workers = 2
	rt := fibril.New(fibril.Config{
		Workers:     workers,
		MaxInflight: workers,
		Admission:   fibril.AdmitShed,
	})
	rt.Start()
	gate := make(chan struct{})
	blockers := make([]*fibril.Job, workers)
	for i := range blockers {
		blockers[i] = rt.Submit(func(*fibril.W) { <-gate })
	}
	// Shed one probe to confirm capacity is genuinely saturated before
	// anything is measured.
	if err := rt.Submit(noopRoot).Err(); !errors.Is(err, fibril.ErrShed) {
		tb.Fatalf("probe submit got %v, want ErrShed", err)
	}
	return rt, func() {
		close(gate)
		for _, j := range blockers {
			if err := j.Err(); err != nil {
				tb.Errorf("blocker: %v", err)
			}
		}
		if err := rt.Close(context.Background()); err != nil {
			tb.Errorf("Close: %v", err)
		}
	}
}

// BenchmarkSubmitThroughput is the closed-loop serving cost per request —
// Submit, wait, Release — for both root shapes: the steady per-op figure
// `go test -bench` tracks.
func BenchmarkSubmitThroughput(b *testing.B) {
	for _, root := range []struct {
		name string
		fn   func(*fibril.W)
	}{{"noop", noopRoot}, {"fib10", fib10Root}} {
		b.Run(root.name, func(b *testing.B) {
			rt := fibril.New(fibril.Config{Workers: 4})
			rt.Start()
			defer rt.Close(context.Background())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := rt.Submit(root.fn)
				if err := j.Err(); err != nil {
					b.Fatal(err)
				}
				j.Release()
			}
		})
	}
}

// BenchmarkSubmitAllocs isolates the submit-side allocation count on the
// deterministic shed lane: every Submit resolves on the caller's
// goroutine, so allocs/op is exactly what the intake path itself pays.
func BenchmarkSubmitAllocs(b *testing.B) {
	rt, done := shedRuntime(b)
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rt.Submit(noopRoot)
		if !errors.Is(j.Err(), fibril.ErrShed) {
			b.Fatal("expected shed")
		}
		j.Release()
	}
}

// TestSubmitAllocGate is the CI allocation gate for the serving intake,
// hard assertions only:
//
//  1. on the deterministic shed lane Submit performs
//     ZERO heap allocations per request — pooled Job, a shed decided under
//     the admission mutex, no clock read, no eager done channel, no eager
//     stats snapshot;
//  2. the admitted closed-loop path — Submit, Err, Release — performs zero
//     too: a pooled Job, and an Err that blocks on the semaphore inside
//     it, not on a channel.
//
// sync.Pool drops Puts at random under -race, so the gate skips there.
func TestSubmitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	t.Run("shed-zero-alloc", func(t *testing.T) {
		rt, done := shedRuntime(t)
		defer done()
		// Warm the Job pool, so AllocsPerRun measures a recycled handle.
		for i := 0; i < 512; i++ {
			rt.Submit(noopRoot).Release()
		}
		allocs := testing.AllocsPerRun(20_000, func() {
			rt.Submit(noopRoot).Release()
		})
		if allocs != 0 {
			t.Errorf("shed-lane Submit allocates %.2f/op, want 0", allocs)
		}
	})

	t.Run("admitted-budget", func(t *testing.T) {
		rt := fibril.New(fibril.Config{Workers: 2})
		rt.Start()
		defer rt.Close(context.Background())
		for i := 0; i < 512; i++ {
			j := rt.Submit(noopRoot)
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			j.Release()
		}
		allocs := testing.AllocsPerRun(5_000, func() {
			j := rt.Submit(noopRoot)
			if err := j.Err(); err != nil {
				t.Fatal(err)
			}
			j.Release()
		})
		if allocs != 0 {
			t.Errorf("admitted closed-loop Submit allocates %.2f/op, want 0", allocs)
		}
	})
}
