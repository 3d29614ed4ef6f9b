// Serving-intake benchmarks and the CI allocation gate for the Submit path
// (admission under one mutex, one ready list, pooled Jobs, wake-one
// parking): the testing.B counters and the hard allocs/op assertions CI
// enforces next to TestForkPathGate.
package fibril_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
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

// closedRuntime builds a runtime that was started and then closed, so
// every Submit resolves deterministically on the submitter's own goroutine
// with ErrClosed — newJob, one hold of the admission mutex, the refusal and
// finish, counted in Stats.JobsShed: the pure submit-side cost with no
// worker and no scheduling in the measurement.
func closedRuntime(tb testing.TB) *fibril.Runtime {
	tb.Helper()
	rt := fibril.New(fibril.Config{Workers: 2})
	rt.Start()
	if err := rt.Close(context.Background()); err != nil {
		tb.Fatalf("Close: %v", err)
	}
	// Refuse one probe to confirm the lane before anything is measured.
	if err := rt.Submit(noopRoot).Err(); !errors.Is(err, fibril.ErrClosed) {
		tb.Fatalf("probe submit got %v, want ErrClosed", err)
	}
	return rt
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
// deterministic refusal lane of a closed runtime: every Submit resolves on
// the caller's goroutine, so allocs/op is exactly what the intake path
// itself pays.
func BenchmarkSubmitAllocs(b *testing.B) {
	rt := closedRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rt.Submit(noopRoot)
		if !errors.Is(j.Err(), fibril.ErrClosed) {
			b.Fatal("expected ErrClosed")
		}
		j.Release()
	}
}

// TestSubmitAllocGate is the CI allocation gate for the serving intake,
// hard assertions only:
//
//  1. on the deterministic refusal lane of a closed runtime Submit performs
//     ZERO heap allocations per request — pooled Job, a refusal decided
//     under the admission mutex, no clock read, no eager done channel, no
//     eager stats snapshot (the subtest keeps its historical name);
//  2. the admitted closed-loop path — Submit, Err, Release — performs zero
//     too: a pooled Job, and an Err that blocks on the semaphore inside
//     it, not on a channel;
//  3. so does the queued path: four clients in that loop against one
//     worker and MaxInflight = 1, so most jobs wait for admission on the
//     ready list, allocate under 0.01 objects per job. A job waiting for
//     admission is linked through the Job itself, not held in a container.
//
// sync.Pool drops Puts at random under -race, so the gate skips there.
func TestSubmitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	t.Run("shed-zero-alloc", func(t *testing.T) {
		rt := closedRuntime(t)
		// Warm the Job pool, so AllocsPerRun measures a recycled handle.
		for i := 0; i < 512; i++ {
			rt.Submit(noopRoot).Release()
		}
		allocs := testing.AllocsPerRun(20_000, func() {
			rt.Submit(noopRoot).Release()
		})
		if allocs != 0 {
			t.Errorf("closed-runtime Submit allocates %.2f/op, want 0", allocs)
		}
		if st := rt.Stats(); st.JobsShed != st.JobsSubmitted {
			t.Errorf("closed runtime: JobsShed=%d, JobsSubmitted=%d; want every Submit refused", st.JobsShed, st.JobsSubmitted)
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

	t.Run("queued-budget", func(t *testing.T) {
		const clients, warm, perClient = 4, 1_000, 12_500
		rt := fibril.New(fibril.Config{Workers: 1, MaxInflight: 1})
		rt.Start()
		defer rt.Close(context.Background())
		loop := func(jobs int) {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < jobs; i++ {
						j := rt.Submit(noopRoot)
						if err := j.Err(); err != nil {
							t.Error(err)
							return
						}
						j.Release()
					}
				}()
			}
			wg.Wait()
		}
		loop(warm)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		loop(perClient)
		runtime.ReadMemStats(&m1)
		perJob := float64(m1.Mallocs-m0.Mallocs) / (clients * perClient)
		t.Logf("%d jobs from %d clients behind MaxInflight=1: %.4f allocs/job", clients*perClient, clients, perJob)
		if perJob >= 0.01 {
			t.Errorf("queued closed-loop Submit allocates %.4f/job, want < 0.01", perJob)
		}
	})
}
