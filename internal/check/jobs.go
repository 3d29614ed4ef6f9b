package check

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"fibril/internal/core"
	"fibril/internal/trace"
)

// The concurrent-jobs differential leg: K generated programs submitted
// from K goroutines as concurrent Jobs on ONE serving runtime. Where the
// one-shot legs (run.go) pin down a single computation's invariants, this
// leg pins down their *composition*: exactly-once execution per program
// with unrelated roots interleaved on the same deques, panic isolation
// (an injected panic surfaces only through its own Job.Err), the job
// conservation laws at K > 1, and quiescence after a graceful Close.

// serveExec is what both job legs observe of one serving runtime: each
// job's result and what a graceful Close left behind.
type serveExec struct {
	Label    string
	Errs     []error  // Job.Err per job
	Seqs     []uint64 // Job.Seq (completion rank) per job
	Stats    core.Stats
	Queued   int   // tasks left in deques after Close (must be 0)
	Parked   int   // thieves still parked after Close (must be 0)
	Inflight int   // InflightJobs after Close (must be 0)
	JobQueue int   // QueuedJobs after Close (must be 0)
	CloseErr error // Close's return (must be nil: nothing forced the drain)
	Trace    TraceSummary
}

// closeGracefully Closes rt and records everything checkServe needs.
func (e *serveExec) closeGracefully(rt *core.Runtime, rec *trace.Recorder) {
	e.CloseErr = rt.Close(context.Background())
	e.Stats = rt.Stats()
	e.Trace = SummarizeTrace(rec)
	e.Queued = rt.QueuedTasks()
	e.Parked = rt.ParkedThieves()
	e.Inflight = rt.InflightJobs()
	e.JobQueue = rt.QueuedJobs()
}

// checkServe is the serving oracle both job legs share. Every job
// completed, so the Seqs are a permutation of 1..n (the order itself is
// scheduling-dependent); a graceful Close left nothing queued, parked or
// inflight; every submission was admitted and completed, none shed or
// drained; and the trace reconciles with the counters.
func (v *violations) checkServe(e *serveExec) {
	n := len(e.Seqs)
	seen := make(map[uint64]int, n)
	for i, s := range e.Seqs {
		if s < 1 || s > uint64(n) {
			v.failf("job %d: completion rank %d outside [1,%d]", i, s, n)
		} else if prev, dup := seen[s]; dup {
			v.failf("jobs %d and %d share completion rank %d", prev, i, s)
		}
		seen[s] = i
	}

	if e.CloseErr != nil {
		v.failf("graceful Close returned %v, want nil", e.CloseErr)
	}
	v.checkQuiescent("Close", e.Queued, e.Parked, e.Inflight)
	if e.JobQueue != 0 {
		v.failf("QueuedJobs=%d after Close, want 0", e.JobQueue)
	}

	st := e.Stats
	if st.JobsSubmitted != int64(n) || st.JobsAdmitted != int64(n) || st.JobsCompleted != int64(n) {
		v.failf("JobsSubmitted=%d JobsAdmitted=%d JobsCompleted=%d, want %d each",
			st.JobsSubmitted, st.JobsAdmitted, st.JobsCompleted, n)
	}
	if st.JobsShed != 0 || st.JobsDrained != 0 {
		v.failf("graceful run shed %d / drained %d jobs, want 0/0", st.JobsShed, st.JobsDrained)
	}

	// Unlike the one-shot panic leg, the job legs reconcile
	// unconditionally: a root's panic is captured inside exec and surfaces
	// through its own Job, never unwinding the thief loop, so every
	// event/counter pairing stays intact even with panicking roots in the
	// mix.
	v.reconcileTrace(e.Trace, st)
}

// JobsExec is the observable outcome of one concurrent-submission run.
type JobsExec struct {
	serveExec
	Counts [][]uint32 // executions per program, per node ID
}

// RunRealJobs starts one runtime, submits every program from its own
// goroutine — concurrently, mixing panicking and clean roots on the same
// scheduler — waits for every Job, Closes gracefully, and snapshots
// everything CheckJobs needs. The stack size and root frame budget are
// shared across programs (the admission reservation is per-runtime
// config, not per-job), so the runtime is sized for the largest root.
func RunRealJobs(ps []*Program, workers int, strat core.Strategy) JobsExec {
	e := JobsExec{
		serveExec: serveExec{
			Label: fmt.Sprintf("jobs/%v/P=%d/K=%d", strat, workers, len(ps)),
			Errs:  make([]error, len(ps)),
			Seqs:  make([]uint64, len(ps)),
		},
		Counts: make([][]uint32, len(ps)),
	}
	frame := 0
	var seed uint64
	for _, p := range ps {
		if p.Root.Frame > frame {
			frame = p.Root.Frame
		}
		seed ^= p.Seed
	}
	rec := trace.NewRecorder(traceRecorderCap)
	rt := core.NewRuntime(core.Config{
		Workers:    workers,
		Strategy:   strat,
		FrameBytes: frame,
		StackPages: harnessStackPages,
		Seed:       seed ^ 0xC0FFEE,
		Sink:       rec,
	})
	rt.Start()
	var wg sync.WaitGroup
	for i, p := range ps {
		e.Counts[i] = make([]uint32, p.Nodes)
		body := p.Body(e.Counts[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := rt.Submit(body)
			e.Errs[i] = j.Err()
			e.Seqs[i] = j.Seq()
		}(i)
	}
	wg.Wait()
	e.closeGracefully(rt, rec)
	return e
}

// CheckJobs runs every oracle that applies to a concurrent-submission run.
// Program seeds appear in each violation message (the collector's own seed
// slot is meaningless for a multi-program leg).
func CheckJobs(ps []*Program, e JobsExec) error {
	v := &violations{label: e.Label}
	st := e.Stats

	// Per-program execution and panic isolation.
	panics := 0
	for i, p := range ps {
		if p.Panics > 0 {
			panics++
			var tp *core.TaskPanic
			switch err := e.Errs[i]; {
			case err == nil:
				v.failf("program %d (seed %#x) injects a panic but Job.Err is nil", i, p.Seed)
			case !errors.As(err, &tp):
				v.failf("program %d (seed %#x): Job.Err is %T (%v), want *core.TaskPanic", i, p.Seed, err, err)
			default:
				ip, ok := tp.Value.(InjectedPanic)
				switch {
				case !ok:
					v.failf("program %d (seed %#x): TaskPanic wraps %T (%v), want check.InjectedPanic",
						i, p.Seed, tp.Value, tp.Value)
				case ip.Seed != p.Seed:
					v.failf("program %d (seed %#x): Job.Err carries a sibling's panic (seed %#x) — isolation broken",
						i, p.Seed, ip.Seed)
				case ip.Node < 0 || ip.Node >= p.Nodes:
					v.failf("program %d (seed %#x): injected panic names unknown node %d", i, p.Seed, ip.Node)
				}
			}
		} else if err := e.Errs[i]; err != nil {
			v.failf("program %d (seed %#x): clean root's Job.Err=%v — a sibling's failure leaked in", i, p.Seed, err)
		}
		for id, want := range p.Expected() {
			if c := e.Counts[i][id]; c != want {
				v.failf("program %d (seed %#x): node n%d executed %d times, want %d", i, p.Seed, id, c, want)
			}
		}
	}

	v.checkServe(&e.serveExec)

	// Flow laws that survive mixed panics. The structural fork/call counts
	// relax to bounds when a panic unwound a parent mid-body (its later
	// fork sites never ran) or lazy edges chose at run time.
	if st.Suspends != st.Resumes {
		v.failf("Suspends=%d != Resumes=%d", st.Suspends, st.Resumes)
	}
	if st.Steals > st.Forks {
		v.failf("Steals=%d > Forks=%d (stole something never forked)", st.Steals, st.Forks)
	}
	var forks, calls, lazy int64
	for _, p := range ps {
		forks += int64(p.Forks)
		calls += int64(p.Calls)
		lazy += int64(p.LazyEdges)
	}
	if st.Forks > forks+lazy {
		v.failf("Stats.Forks=%d > total fork edges %d (+%d lazy)", st.Forks, forks, lazy)
	}
	if panics == 0 {
		if st.Forks+st.Calls != forks+calls+lazy {
			v.failf("Stats.Forks=%d + Stats.Calls=%d != fork edges %d + call edges %d + lazy %d",
				st.Forks, st.Calls, forks, calls, lazy)
		}
	}

	// Arena conservation: the balance law relaxes to an inequality when a
	// panic unwind skipped release sites.
	if st.ArenaReleases > st.ArenaAcquires {
		v.failf("ArenaReleases=%d > ArenaAcquires=%d", st.ArenaReleases, st.ArenaAcquires)
	}
	if panics == 0 && st.ArenaAcquires != st.ArenaReleases {
		v.failf("ArenaAcquires=%d != ArenaReleases=%d on a panic-free run", st.ArenaAcquires, st.ArenaReleases)
	}
	return v.err()
}

// The many-submitters × tiny-jobs stress lane: K goroutines each submit M
// single-node roots back to back, so the runtime spends essentially all
// of its time between Submit and completion — admission under its mutex
// (and, with an inflight bound, queueing and promotion by completions), the
// ready list of admitted roots, Job pooling (every job is Released),
// wake-one parking — rather than in the computation. The generated-program leg above stresses
// scheduling *within* jobs, this lane stresses the machinery *between*
// them.

// StressExec is the observable outcome of one stress run.
type StressExec struct {
	serveExec
	Workers int      // Config.Workers of the run
	Counts  []uint32 // executions per root (must be exactly 1 each)
	IDs     []uint64 // Job.ID (admission order) per root
}

// RunJobStress floods one serving runtime, its admission bounded by
// maxInflight (0 = unlimited, as in Config.MaxInflight), with k submitter
// goroutines × m single-node roots each, waiting for and Releasing every
// Job, then Closes gracefully.
func RunJobStress(k, m, workers, maxInflight int) StressExec {
	n := k * m
	e := StressExec{
		serveExec: serveExec{
			Label: fmt.Sprintf("jobstress/P=%d/K=%d/M=%d/max=%d", workers, k, m, maxInflight),
			Errs:  make([]error, n),
			Seqs:  make([]uint64, n),
		},
		Workers: workers,
		Counts:  make([]uint32, n),
		IDs:     make([]uint64, n),
	}
	rec := trace.NewRecorder(traceRecorderCap)
	rt := core.NewRuntime(core.Config{
		Workers:     workers,
		StackPages:  harnessStackPages,
		MaxInflight: maxInflight,
		Sink:        rec,
	})
	rt.Start()
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < m; i++ {
				idx := s*m + i
				j := rt.Submit(func(*core.W) {
					atomic.AddUint32(&e.Counts[idx], 1)
				})
				e.IDs[idx] = j.ID()
				e.Errs[idx] = j.Err()
				e.Seqs[idx] = j.Seq()
				j.Release()
			}
		}(s)
	}
	wg.Wait()
	e.closeGracefully(rt, rec)
	return e
}

// CheckJobStress runs the oracles for a stress run: exactly-once
// execution, per-root success, the serving oracle (checkServe) at
// Submitted == k*m, and the no-fork flow laws — single-node roots make no
// tasks, so Forks and Steals must both read zero. With one worker the
// roots also run one after another in the order admission numbered them,
// so completion rank must rise with ID. Trace reconciliation
// pins #JobStart == #JobDone == JobsCompleted and the TaskStart ==
// Steals − RestrictedSteals identity on the stressed path.
func CheckJobStress(k, m int, e StressExec) error {
	v := &violations{label: e.Label}
	st := e.Stats

	for i, c := range e.Counts {
		if c != 1 {
			v.failf("root %d executed %d times, want exactly once", i, c)
		}
	}
	for i, err := range e.Errs {
		if err != nil {
			v.failf("root %d: Job.Err=%v, want nil", i, err)
		}
	}
	if n := len(e.Seqs); n != k*m {
		v.failf("%d roots recorded, want %d", n, k*m)
	}
	if e.Workers == 1 {
		byID := make([]int, len(e.IDs))
		for i := range byID {
			byID[i] = i
		}
		slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(e.IDs[a], e.IDs[b]) })
		for r := 1; r < len(byID); r++ {
			if a, b := byID[r-1], byID[r]; e.Seqs[a] > e.Seqs[b] {
				v.failf("one worker: root ID %d completed at rank %d, after root ID %d at rank %d",
					e.IDs[a], e.Seqs[a], e.IDs[b], e.Seqs[b])
			}
		}
	}

	v.checkServe(&e.serveExec)

	// Single-node roots: the scheduler never sees a forked task, so the
	// whole steal/suspend economy must be silent.
	if st.Forks != 0 || st.Calls != 0 {
		v.failf("Forks=%d Calls=%d on single-node roots, want 0/0", st.Forks, st.Calls)
	}
	if st.Steals != 0 || st.Suspends != 0 || st.Resumes != 0 {
		v.failf("Steals=%d Suspends=%d Resumes=%d on single-node roots, want 0 each",
			st.Steals, st.Suspends, st.Resumes)
	}
	return v.err()
}
