package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fibril/internal/trace"
)

// submitFib is a small fork-join request body: enough structure to
// exercise stealing and suspension, small enough to run thousands of
// times per test.
func submitFib(n int) func(*W) {
	return func(w *W) {
		var out int64
		fibSubmit(w, n, &out)
	}
}

func fibSubmit(w *W, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var fr Frame
	w.Init(&fr)
	var a, b int64
	w.Fork(&fr, func(w *W) { fibSubmit(w, n-1, &a) })
	w.Call(func(w *W) { fibSubmit(w, n-2, &b) })
	w.Join(&fr)
	*out = a + b
}

// TestConcurrentSubmit is the acceptance-criteria race test: >= 8
// goroutines submitting concurrently to one serving Runtime, a mix of
// clean and panicking roots, with per-Job panic isolation — a panicking
// root must fail its own Job and no sibling.
func TestConcurrentSubmit(t *testing.T) {
	for _, strat := range []Strategy{StrategyFibril, StrategyTBB} {
		t.Run(strat.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: 4, Strategy: strat})
			rt.Start()
			const submitters = 8
			const perSubmitter = 4
			type result struct {
				job    *Job
				panics bool
				sub    int
			}
			results := make([]result, submitters*perSubmitter)
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for k := 0; k < perSubmitter; k++ {
						i := s*perSubmitter + k
						panics := i%3 == 0
						var j *Job
						if panics {
							j = rt.Submit(func(w *W) {
								var fr Frame
								w.Init(&fr)
								w.Fork(&fr, func(w *W) { submitFib(10)(w) })
								w.Join(&fr)
								panic(fmt.Sprintf("boom-%d", i))
							})
						} else {
							j = rt.Submit(submitFib(12))
						}
						results[i] = result{job: j, panics: panics, sub: s}
					}
				}(s)
			}
			wg.Wait()
			seen := map[uint64]bool{}
			for i, r := range results {
				err := r.job.Err()
				if r.panics {
					var tp *TaskPanic
					if !errors.As(err, &tp) {
						t.Fatalf("job %d: want TaskPanic, got %v", i, err)
					}
					if want := fmt.Sprintf("boom-%d", i); tp.Value != want {
						t.Errorf("job %d: panic value %v, want %q — a sibling's panic leaked", i, tp.Value, want)
					}
				} else if err != nil {
					t.Errorf("clean job %d failed: %v — disturbed by a sibling's panic?", i, err)
				}
				if seq := r.job.Seq(); seq == 0 || seen[seq] {
					t.Errorf("job %d: completion seq %d not unique and 1-based", i, seq)
				} else {
					seen[seq] = true
				}
			}
			if err := rt.Close(context.Background()); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st := rt.Stats()
			n := int64(submitters * perSubmitter)
			if st.JobsSubmitted != n || st.JobsAdmitted != n || st.JobsCompleted != n {
				t.Errorf("job conservation: submitted=%d admitted=%d completed=%d, want all %d",
					st.JobsSubmitted, st.JobsAdmitted, st.JobsCompleted, n)
			}
			if st.JobsShed != 0 || st.JobsDrained != 0 {
				t.Errorf("unexpected shed=%d drained=%d", st.JobsShed, st.JobsDrained)
			}
			if q := rt.QueuedTasks(); q != 0 {
				t.Errorf("QueuedTasks=%d after Close, want 0", q)
			}
			if inf := rt.InflightJobs(); inf != 0 {
				t.Errorf("InflightJobs=%d after Close, want 0", inf)
			}
			if qj := rt.QueuedJobs(); qj != 0 {
				t.Errorf("QueuedJobs=%d after Close, want 0", qj)
			}
		})
	}
}

// TestCloseDrainsInflight: Close must wait for running jobs, and the
// runtime must be reusable (Start/Run again) afterwards.
func TestCloseDrainsInflight(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	release := make(chan struct{})
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, rt.Submit(func(w *W) {
			<-release
			submitFib(8)(w)
		}))
	}
	closed := make(chan error, 1)
	go func() { closed <- rt.Close(context.Background()) }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with jobs still blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, j := range jobs {
		if err := j.Err(); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	// Runtime is idle again: one-shot Run must work and accumulate.
	st := rt.Run(submitFib(10))
	if st.JobsCompleted != 5 {
		t.Errorf("JobsCompleted=%d after reuse, want 5", st.JobsCompleted)
	}
}

// TestCloseContextAbandonsQueue: a forced drain fails exactly the jobs
// never admitted with ErrDrained and still completes admitted jobs, also
// those that no worker has started yet: with one worker held by a running
// blocker, two admitted jobs and four waiting for admission share the ready
// list, and the drain must cut it behind the admitted two.
func TestCloseContextAbandonsQueue(t *testing.T) {
	const admitted, waiting = 2, 4
	rt := NewRuntime(Config{Workers: 1, MaxInflight: 1 + admitted})
	rt.Start()
	release := make(chan struct{})
	started := make(chan struct{})
	var blockerDone atomic.Bool
	blocker := rt.Submit(func(*W) { close(started); <-release; blockerDone.Store(true) })
	<-started // the blocker is running, not sitting on the ready list
	var ranEarly atomic.Int32
	var ready, queued []*Job
	for i := 0; i < admitted; i++ {
		ready = append(ready, rt.Submit(func(w *W) {
			if !blockerDone.Load() {
				ranEarly.Add(1)
			}
			submitFib(5)(w)
		}))
	}
	for i := 0; i < waiting; i++ {
		queued = append(queued, rt.Submit(submitFib(5)))
	}
	if got := rt.QueuedJobs(); got != admitted+waiting {
		t.Fatalf("QueuedJobs=%d before Close, want %d", got, admitted+waiting)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- rt.Close(ctx) }()
	// The forced drain abandons the jobs never admitted once ctx expires;
	// the blocker and the two behind it are admitted, so Close keeps
	// waiting for them.
	for _, j := range queued {
		if err := j.Err(); !errors.Is(err, ErrDrained) {
			t.Errorf("queued job: err=%v, want ErrDrained", err)
		}
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with the admitted blocker still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close err=%v, want DeadlineExceeded", err)
	}
	if err := blocker.Err(); err != nil {
		t.Errorf("admitted blocker err=%v, want nil (admitted jobs always run)", err)
	}
	for i, j := range ready {
		if err := j.Err(); err != nil {
			t.Errorf("admitted job %d err=%v, want nil (admitted jobs always run)", i, err)
		}
	}
	if n := ranEarly.Load(); n != 0 {
		t.Errorf("%d admitted jobs ran before the blocker finished on the one worker", n)
	}
	st := rt.Stats()
	if st.JobsDrained != waiting || st.JobsAdmitted != 1+admitted || st.JobsCompleted != 1+admitted {
		t.Errorf("drained=%d admitted=%d completed=%d, want %d/%d/%d",
			st.JobsDrained, st.JobsAdmitted, st.JobsCompleted, waiting, 1+admitted, 1+admitted)
	}
}

// TestQueuePolicyPromotes: an over-capacity submission waits and is
// admitted when capacity frees — nothing is lost — and the admission queue
// is strict FIFO: eight jobs queued behind MaxInflight = 1 start in ID
// order.
func TestQueuePolicyPromotes(t *testing.T) {
	const queuedJobs = 8
	rt := NewRuntime(Config{Workers: 2, MaxInflight: 1})
	rt.Start()
	release := make(chan struct{})
	blocker := rt.Submit(func(*W) { <-release })
	var mu sync.Mutex
	var started []uint64
	fib := submitFib(8)
	queued := make([]*Job, queuedJobs)
	for i := range queued {
		queued[i] = rt.Submit(func(w *W) {
			mu.Lock()
			started = append(started, queued[i].ID())
			mu.Unlock()
			fib(w)
		})
	}
	select {
	case <-queued[0].Done():
		t.Fatal("queued job ran while the blocker held MaxInflight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i, j := range queued {
		if err := j.Err(); err != nil {
			t.Fatalf("queued job %d: %v", i, err)
		}
	}
	if err := blocker.Err(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(started) != queuedJobs || !slices.IsSorted(started) {
		t.Errorf("queued jobs started as IDs %v, want %d rising IDs", started, queuedJobs)
	}
	if st := rt.Stats(); st.JobsAdmitted != 1+queuedJobs || st.JobsShed != 0 {
		t.Errorf("admitted=%d shed=%d, want %d/0", st.JobsAdmitted, st.JobsShed, 1+queuedJobs)
	}
}

// TestLifecycleMisuse: the state machine rejects out-of-order calls, and a
// Submit it refuses with a panic is not counted: the job counters still
// balance after the cycle.
func TestLifecycleMisuse(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Submit on idle runtime", func() { rt.Submit(func(*W) {}) })
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close on idle runtime: %v (want nil no-op)", err)
	}
	rt.Start()
	mustPanic("double Start", rt.Start)
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After a full cycle the runtime is idle and restartable.
	rt.Start()
	if err := rt.Submit(submitFib(5)).Err(); err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if st := rt.Stats(); st.JobsSubmitted != st.JobsShed+st.JobsDrained+st.JobsCompleted {
		t.Errorf("conservation broken: submitted=%d != shed=%d + drained=%d + completed=%d — the idle Submit was counted",
			st.JobsSubmitted, st.JobsShed, st.JobsDrained, st.JobsCompleted)
	}
}

// TestSubmitWhileClosing: submissions racing Close complete with ErrClosed
// instead of hanging or panicking.
func TestSubmitWhileClosing(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	release := make(chan struct{})
	rt.Submit(func(*W) { <-release })
	closed := make(chan error, 1)
	go func() { closed <- rt.Close(context.Background()) }()
	// Wait until Close has flipped the state to closing.
	deadline := time.Now().Add(time.Second)
	var late *Job
	for {
		late = rt.Submit(func(*W) {})
		if err := late.Err(); errors.Is(err, ErrClosed) {
			break
		} else if err != nil {
			t.Fatalf("unexpected err: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never reached the closing state")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := rt.Stats(); st.JobsShed == 0 {
		t.Errorf("JobsShed=0, want the ErrClosed submissions counted")
	}
}

// TestRunSemanticsPreserved: the Run wrapper still re-raises root panics
// as *TaskPanic and returns accumulated stats, byte-identical semantics to
// the pre-Submit API.
func TestRunSemanticsPreserved(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	st := rt.Run(submitFib(10))
	if st.JobsCompleted != 1 || st.JobsSubmitted != 1 {
		t.Errorf("one Run: submitted=%d completed=%d, want 1/1", st.JobsSubmitted, st.JobsCompleted)
	}
	forks := st.Forks
	if forks == 0 {
		t.Error("fib(10) forked nothing")
	}
	// Counters accumulate across Runs on one Runtime.
	if st2 := rt.Run(submitFib(10)); st2.Forks != 2*forks {
		t.Errorf("accumulated Forks=%d, want %d", st2.Forks, 2*forks)
	}
	defer func() {
		v := recover()
		tp, ok := v.(*TaskPanic)
		if !ok {
			t.Fatalf("Run panicked with %T(%v), want *TaskPanic", v, v)
		}
		if tp.Value != "root boom" {
			t.Errorf("panic value %v", tp.Value)
		}
	}()
	rt.Run(func(*W) { panic("root boom") })
}

// TestRunOnServingRuntime: Run on an already-Started runtime submits into
// the live worker pool and leaves it serving.
func TestRunOnServingRuntime(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	st := rt.Run(submitFib(10))
	if st.JobsCompleted != 1 {
		t.Errorf("JobsCompleted=%d, want 1", st.JobsCompleted)
	}
	// Still serving: Submit must not panic.
	if err := rt.Submit(submitFib(5)).Err(); err != nil {
		t.Errorf("Submit after Run-on-serving: %v", err)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestJobLatencyHistogram: a serving run with a MetricsSink attached must
// fold per-Job submit-to-completion latencies into the job-latency
// histogram (the serve experiment's p50/p99/p999 source).
func TestJobLatencyHistogram(t *testing.T) {
	sink := trace.NewMetricsSink()
	rt := NewRuntime(Config{Workers: 2, Sink: sink})
	rt.Start()
	const n = 20
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, rt.Submit(submitFib(8)))
	}
	for _, j := range jobs {
		j.Wait()
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := sink.Snapshot()
	if snap.JobLatency.Count != n {
		t.Errorf("JobLatency.Count=%d, want %d", snap.JobLatency.Count, n)
	}
	if p50 := snap.JobLatency.Quantile(0.5); p50 <= 0 {
		t.Errorf("p50=%d, want > 0", p50)
	}
}

// TestConcurrentSubmitIntakeDifferential runs the concurrent-submission
// acceptance shape with every handle Released afterwards: real fork-join
// roots with a panicking minority, eight submitters, full conservation at
// Close. With one intake left it compares nothing. It, TestLazyStatsOnWait,
// TestCloseRacesFastSubmit and TestSubmitAfterAllThievesParked keep one
// subtest named "sharded", after the per-slot intake that is gone, only so
// that their recorded test names stay stable.
func TestConcurrentSubmitIntakeDifferential(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		rt.Start()
		const submitters, perSubmitter = 8, 3
		jobs := make([]*Job, submitters*perSubmitter)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for k := 0; k < perSubmitter; k++ {
					i := s*perSubmitter + k
					if i%5 == 0 {
						jobs[i] = rt.Submit(func(*W) { panic(fmt.Sprintf("boom-%d", i)) })
					} else {
						jobs[i] = rt.Submit(submitFib(10))
					}
				}
			}(s)
		}
		wg.Wait()
		seen := map[uint64]bool{}
		for i, j := range jobs {
			err := j.Err()
			if i%5 == 0 {
				var tp *TaskPanic
				if !errors.As(err, &tp) || tp.Value != fmt.Sprintf("boom-%d", i) {
					t.Fatalf("job %d: err=%v, want own panic", i, err)
				}
			} else if err != nil {
				t.Fatalf("clean job %d: %v", i, err)
			}
			if seq := j.Seq(); seq == 0 || seen[seq] {
				t.Errorf("job %d: seq %d not unique and 1-based", i, seq)
			} else {
				seen[seq] = true
			}
			j.Release()
		}
		if err := rt.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st := rt.Stats()
		n := int64(submitters * perSubmitter)
		if st.JobsSubmitted != n || st.JobsAdmitted != n || st.JobsCompleted != n {
			t.Errorf("conservation: submitted=%d admitted=%d completed=%d, want %d each",
				st.JobsSubmitted, st.JobsAdmitted, st.JobsCompleted, n)
		}
		if st.JobsShed != 0 || st.JobsDrained != 0 {
			t.Errorf("shed=%d drained=%d, want 0/0", st.JobsShed, st.JobsDrained)
		}
	})
}

// TestRootsStartInSubmissionOrder pins the intake's FIFO: with both slots of
// a Workers=2 runtime held by blocker roots, 32 more roots queue; when one
// blocker returns, its slot is the only consumer, so it must start them in
// the order they were admitted — which for one submitter is ID order.
func TestRootsStartInSubmissionOrder(t *testing.T) {
	const queued = 32
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	started := make(chan struct{})
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var blockers [2]*Job
	for b, gate := range gates {
		blockers[b] = rt.Submit(func(*W) { started <- struct{}{}; <-gate })
	}
	for range blockers {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("the two blockers never occupied both slots")
		}
	}
	var mu sync.Mutex
	var order, want []int
	jobs := make([]*Job, queued)
	for i := range jobs {
		jobs[i] = rt.Submit(func(*W) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
		want = append(want, i)
	}
	close(gates[0])
	watchdog(t, 10*time.Second, func() {
		for _, j := range jobs {
			if err := j.Err(); err != nil {
				t.Errorf("root %d: %v", j.ID(), err)
			}
		}
	})
	close(gates[1])
	for _, j := range blockers {
		if err := j.Err(); err != nil {
			t.Fatalf("blocker: %v", err)
		}
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !slices.Equal(order, want) {
		t.Errorf("queued roots started in the order %v, want submission order", order)
	}
}

// TestConcurrentRootsStartInIDOrder pins that one hold of the admission
// mutex both numbers a root and queues it for a worker: with the one slot of
// a Workers=1 runtime held by a blocker, 8 goroutines submit 100 roots each,
// and once the blocker returns that slot is the only consumer, so the roots
// must start in ID order. A submitter that could lose its CPU between
// taking an ID and queueing the root would be overtaken by later IDs; with
// twenty rounds that showed at two and four CPUs on every run.
func TestConcurrentRootsStartInIDOrder(t *testing.T) {
	const submitters, per, rounds = 8, 100, 20
	rt := NewRuntime(Config{Workers: 1})
	rt.Start()
	defer rt.Close(context.Background())
	for round := 0; round < rounds; round++ {
		started, gate := make(chan struct{}), make(chan struct{})
		blocker := rt.Submit(func(*W) { close(started); <-gate })
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("the blocker never occupied the slot")
		}
		var mu sync.Mutex
		var order []int // indices into jobs, in start order
		jobs := make([]*Job, submitters*per)
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					i := s*per + k
					jobs[i] = rt.Submit(func(*W) {
						mu.Lock()
						order = append(order, i)
						mu.Unlock()
					})
				}
			}(s)
		}
		wg.Wait()
		close(gate)
		watchdog(t, 10*time.Second, func() {
			for _, j := range append(jobs, blocker) {
				if err := j.Err(); err != nil {
					t.Errorf("root %d: %v", j.ID(), err)
				}
			}
		})
		inversions := 0
		for k := 1; k < len(order); k++ {
			if jobs[order[k]].ID() < jobs[order[k-1]].ID() {
				inversions++
			}
		}
		if inversions > 0 {
			t.Fatalf("round %d: %d of %d roots started before a root with a smaller ID",
				round, inversions, len(order))
		}
		for _, j := range jobs {
			j.Release()
		}
		blocker.Release()
	}
}

// TestRunErrAllocs pins what one RunErr costs in allocations: it reads its
// Job's error without the Stats snapshot Wait would compute and cache,
// blocking on the semaphore inside the Job, and releases the Job, which only
// it holds, for the next call to reuse. On a started runtime that is
// nothing at all; a one-shot call adds the start, whose thief goroutine
// makes its go statement's closure and its W. sync.Pool drops Puts at
// random under -race, so the counts are only meaningful without it.
func TestRunErrAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	noop := func(*W) {}
	rt := NewRuntime(Config{Workers: 1})
	if a := testing.AllocsPerRun(100, func() { rt.RunErr(noop) }); a > 2 {
		t.Errorf("one-shot RunErr: %.1f allocs/op, want <= 2", a)
	}
	rt.Start()
	defer rt.Close(context.Background())
	if a := testing.AllocsPerRun(100, func() { rt.RunErr(noop) }); a != 0 {
		t.Errorf("RunErr on a started runtime: %.1f allocs/op, want 0", a)
	}
}

// TestJobPoolRecycles pins the Release → Submit recycling loop:
// sequentially submitting and releasing must start handing back previously
// released handles (pointer reuse), and a reused handle must behave like a
// fresh one — new ID, clean Err, fresh Seq.
func TestJobPoolRecycles(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4})
	rt.Start()
	defer rt.Close(context.Background())

	const rounds = 64
	seenPtr := make(map[*Job]int, rounds)
	reused := 0
	var lastID uint64
	for i := 0; i < rounds; i++ {
		j := rt.Submit(func(*W) {})
		if prev, ok := seenPtr[j]; ok {
			reused++
			_ = prev
		}
		seenPtr[j] = i
		if err := j.Err(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if id := j.ID(); id <= lastID {
			t.Fatalf("round %d: ID %d not fresh (last %d) — stale pool reset", i, id, lastID)
		} else {
			lastID = id
		}
		j.Release()
	}
	if reused == 0 {
		t.Errorf("no Job handle was recycled across %d sequential submit/release rounds", rounds)
	}
}

// TestLazyStatsOnWait pins that the completion path does NOT aggregate a
// Stats snapshot — it is allocated and computed on the first Wait and
// cached, and Release drops it. White-box: stats is only ever set under
// statsMu, by a Wait, so reading it after Err is race-free.
func TestLazyStatsOnWait(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 2})
		rt.Start()
		defer rt.Close(context.Background())
		j := rt.Submit(func(*W) {})
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		if j.stats != nil {
			t.Fatal("stats set at completion: the completer took a Stats snapshot")
		}
		s1 := j.Wait()
		if j.stats == nil {
			t.Fatal("stats still nil after Wait")
		}
		if s1.JobsCompleted < 1 {
			t.Fatalf("Wait snapshot JobsCompleted=%d, want >=1", s1.JobsCompleted)
		}
		if s2 := j.Wait(); s2 != s1 {
			t.Fatalf("second Wait returned a different snapshot: %+v vs %+v", s2, s1)
		}
		j.Release()
		if j.stats != nil {
			t.Fatal("Release kept the Stats snapshot on the pooled handle")
		}
		if size := unsafe.Sizeof(Job{}); size > 128 {
			t.Errorf("Job is %d bytes; the Stats snapshot is meant to live behind a pointer", size)
		}
	})
}

// TestCloseRacesFastSubmit races Submit against Close on the admission
// mutex: eight goroutines submit tiny roots while Close lands mid-stream.
// Every job must resolve (nil, ErrClosed, or ErrDrained), and the
// conservation law Submitted == Shed + Drained + Completed must hold
// exactly — a submission admitted after Close set the closing state would
// break it. The name is kept from the lock-free submit lane it once tested.
func TestCloseRacesFastSubmit(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		rt.Start()
		const submitters, per = 8, 100
		jobs := make([]*Job, submitters*per)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				for k := 0; k < per; k++ {
					jobs[s*per+k] = rt.Submit(func(*W) {})
				}
			}(s)
		}
		close(start)
		time.Sleep(200 * time.Microsecond)
		if err := rt.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		for i, j := range jobs {
			switch err := j.Err(); err {
			case nil, ErrClosed, ErrDrained:
			default:
				t.Fatalf("job %d: unexpected err %v", i, err)
			}
		}
		st := rt.Stats()
		total := int64(submitters * per)
		if st.JobsSubmitted != total {
			t.Fatalf("JobsSubmitted=%d, want %d", st.JobsSubmitted, total)
		}
		if st.JobsSubmitted != st.JobsShed+st.JobsDrained+st.JobsCompleted {
			t.Fatalf("conservation broken: submitted=%d != shed=%d + drained=%d + completed=%d",
				st.JobsSubmitted, st.JobsShed, st.JobsDrained, st.JobsCompleted)
		}
		if st.JobsAdmitted != st.JobsCompleted {
			t.Fatalf("JobsAdmitted=%d != JobsCompleted=%d after Close", st.JobsAdmitted, st.JobsCompleted)
		}
		if inf := rt.InflightJobs(); inf != 0 {
			t.Fatalf("InflightJobs=%d after Close", inf)
		}
	})
}

// TestAdmissionRacesClose races every admission decision against a forced
// drain: eight submitters send tiny roots, an inflight bound queues most
// of them, and a Close whose context expires after 500 µs lands
// mid-stream, so jobs are admitted, queued, promoted by completions,
// drained and refused all at once. Every job must resolve, the counters
// must balance exactly, and no inflight slot or queued job may be left
// behind.
func TestAdmissionRacesClose(t *testing.T) {
	const rounds, submitters, per = 20, 8, 50
	for r := 0; r < rounds; r++ {
		rt := NewRuntime(Config{Workers: 2, MaxInflight: 3})
		rt.Start()
		jobs := make([]*Job, submitters*per)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				<-start
				for k := 0; k < per; k++ {
					jobs[s*per+k] = rt.Submit(func(*W) {})
				}
			}(s)
		}
		close(start)
		time.Sleep(100 * time.Microsecond)
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
		if err := rt.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: Close: %v", r, err)
		}
		cancel()
		wg.Wait()
		for i, j := range jobs {
			switch err := j.Err(); err {
			case nil, ErrClosed, ErrDrained:
			default:
				t.Fatalf("round %d: job %d: unexpected err %v", r, i, err)
			}
		}
		st := rt.Stats()
		if total := int64(submitters * per); st.JobsSubmitted != total ||
			st.JobsShed+st.JobsDrained+st.JobsCompleted != total {
			t.Fatalf("round %d: submitted=%d shed=%d drained=%d completed=%d, want submitted == shed+drained+completed == %d",
				r, st.JobsSubmitted, st.JobsShed, st.JobsDrained, st.JobsCompleted, total)
		}
		if st.JobsAdmitted != st.JobsCompleted {
			t.Fatalf("round %d: JobsAdmitted=%d != JobsCompleted=%d after Close", r, st.JobsAdmitted, st.JobsCompleted)
		}
		if inf, q := rt.InflightJobs(), rt.QueuedJobs(); inf != 0 || q != 0 {
			t.Fatalf("round %d: InflightJobs=%d QueuedJobs=%d after Close, want 0/0", r, inf, q)
		}
	}
}

// TestDoneLazyChannel pins the lazy wait-channel protocol: a completed
// job's Done returns the shared pre-closed channel with zero allocations,
// and a channel obtained BEFORE completion is still closed by it.
func TestDoneLazyChannel(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	defer rt.Close(context.Background())

	// Early Done: channel allocated by the waiter, closed by completion.
	gate := make(chan struct{})
	j := rt.Submit(func(*W) { <-gate })
	early := j.Done()
	select {
	case <-early:
		t.Fatal("Done closed before the root finished")
	default:
	}
	close(gate)
	select {
	case <-early:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-completion Done channel never closed")
	}

	// Late Done: already complete — the shared closed channel, no allocs.
	if allocs := testing.AllocsPerRun(100, func() {
		<-j.Done()
	}); allocs != 0 {
		t.Errorf("Done on a completed job allocates %.1f/op, want 0", allocs)
	}
	j.Release()
}

// TestReleaseIncompletePanics pins the Release contract: recycling a
// handle whose job is still running must panic rather than hand a live
// Job to the pool.
func TestReleaseIncompletePanics(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	gate := make(chan struct{})
	j := rt.Submit(func(*W) { <-gate })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release of an incomplete Job did not panic")
			}
		}()
		j.Release()
	}()
	close(gate)
	if err := j.Err(); err != nil {
		t.Fatalf("Err after failed Release: %v", err)
	}
	j.Release()
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReleaseHandsHandleOn is the closed serving loop that recycles every
// handle — Submit, <-Done(), Release — and the regression test for the
// completer looking at a Job twice. Completion used to store the done
// state and then load the wait-channel pointer; a waiter that saw the
// state could Release, and the next Submit reuse the handle and publish
// ITS wait channel, before that load — which then closed the wrong
// generation's channel, and its own completer closed it again ("close of
// closed channel" from a worker goroutine, which takes the process down).
// The window is two instructions wide, so what opens it is the completer
// losing its CPU inside it: eight clients and eight workers on sixteen Ps
// give the kernel a reason on any host with fewer CPUs than that.
func TestReleaseHandsHandleOn(t *testing.T) {
	const clients, workers = 8, 8
	perClient := 750_000
	if testing.Short() || raceEnabled {
		perClient = 20_000
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients + workers))
	rt := NewRuntime(Config{Workers: workers})
	rt.Start()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j := rt.Submit(func(*W) {})
				<-j.Done()
				j.Release()
			}
		}()
	}
	wg.Wait()
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st, want := rt.Stats(), int64(clients*perClient); st.JobsSubmitted != want || st.JobsCompleted != want {
		t.Errorf("JobsSubmitted=%d JobsCompleted=%d, want %d each", st.JobsSubmitted, st.JobsCompleted, want)
	}
}

// TestErrReleaseHandsHandleOn is TestReleaseHandsHandleOn with the caller
// waiting in Err, on the semaphore inside the Job, instead of on Done's
// channel: Submit, Err, Release, eight clients and eight workers on sixteen
// Ps. The semaphore's release is the completer's last touch of the handle,
// so a completer that looked at the Job after it, or a Release that did not
// wait for it, would let the next Submit's count collide with the old
// generation's — which sync.WaitGroup reports by panicking.
func TestErrReleaseHandsHandleOn(t *testing.T) {
	const clients, workers = 8, 8
	perClient := 200_000
	if testing.Short() || raceEnabled {
		perClient = 20_000
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clients + workers))
	rt := NewRuntime(Config{Workers: workers})
	rt.Start()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				j := rt.Submit(func(*W) {})
				if err := j.Err(); err != nil {
					t.Errorf("client %d job %d: %v", c, i, err)
					return
				}
				j.Release()
			}
		}()
	}
	wg.Wait()
	if err := rt.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st, want := rt.Stats(), int64(clients*perClient); st.JobsSubmitted != want || st.JobsCompleted != want {
		t.Errorf("JobsSubmitted=%d JobsCompleted=%d, want %d each", st.JobsSubmitted, st.JobsCompleted, want)
	}
}

// TestDoneAndErrWaitTogether waits for one job two ways at once: one
// goroutine on Done's channel, another in Err. Completion must close the
// channel and release the semaphore, both callers must see the same
// outcome, and only then is the handle Released and reused by the next
// round. Odd rounds panic, so the outcome differs from round to round.
func TestDoneAndErrWaitTogether(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	defer rt.Close(context.Background())
	for r := 0; r < 200; r++ {
		gate := make(chan struct{})
		j := rt.Submit(func(*W) {
			<-gate
			if r%2 == 1 {
				panic(r)
			}
		})
		done := j.Done()
		errc := make(chan error, 1)
		go func() { errc <- j.Err() }()
		time.Sleep(50 * time.Microsecond) // most rounds: both callers blocked
		close(gate)
		var err error
		watchdog(t, 10*time.Second, func() {
			<-done
			err = <-errc
		})
		var tp *TaskPanic
		switch {
		case r%2 == 0 && err != nil:
			t.Fatalf("round %d: Err() = %v, want nil", r, err)
		case r%2 == 1 && (!errors.As(err, &tp) || tp.Value != r):
			t.Fatalf("round %d: Err() = %v, want the root's panic", r, err)
		case j.Err() != err:
			t.Fatalf("round %d: Err() = %v after the Done waiter, %v in the other goroutine", r, j.Err(), err)
		}
		j.Release()
	}
}
