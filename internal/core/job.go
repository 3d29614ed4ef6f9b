package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"fibril/internal/trace"
)

// This file is the serving lifecycle: a Runtime can be started once
// (Start), accept many concurrent root computations (Submit → *Job), and
// drain gracefully (Close). The one-shot Run/RunErr entry points are thin
// wrappers over this machinery — see runtime.go — so batch and serving
// execution share a single code path.
//
// A submitted root waits for a worker on admitState's ready list rather
// than a worker deque: idle thieves take roots only after a full steal
// sweep fails, so in-flight computations keep their workers until there is
// genuinely idle capacity, and restricted (TBB) inline steals can never
// pick up an unrelated root. Admission control bounds the number of live
// roots (Config.MaxInflight): the list's admitted jobs come first, and a
// submission over the bound waits behind them, FIFO, until running jobs
// complete and admit it.
//
// Every admission decision, ready-list link, completion release, job
// counter and lifecycle transition happens under admitState's one mutex:
// Submit takes it once, a completing root once, a thief taking a root
// once, and Close once on each side of its drain. Only the thief wake-up
// and the completion publish run outside it, so roots start in the order
// admission numbered them. See DESIGN.md §10 for the full pipeline.

// Submission errors, surfaced through Job.Err.
var (
	// ErrDrained marks a queued Job abandoned by a Close whose context
	// expired before the job could be admitted.
	ErrDrained = errors.New("core: job drained at close")
	// ErrClosed marks a submission that arrived during or after Close.
	ErrClosed = errors.New("core: runtime is closed to new jobs")
)

// closedChan is the shared, permanently closed channel Done hands out for
// already-completed jobs, so polling a finished Job allocates nothing. Its
// address is also the completed value of Job.done.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Job is one submitted root computation on a serving Runtime. A Job is
// created by Submit and completes exactly once: executed to completion
// (possibly with a captured panic), refused because the Runtime was
// closing, or drained by a forced Close. All methods are safe from any
// goroutine.
//
// Jobs are pooled (jobPool): a caller that is done with a handle may call
// Release to recycle it. Wait, Err and Seq block on a semaphore inside the
// Job (sem), so waiting allocates nothing; only Done, for select users,
// allocates a channel, and only if the job has not completed yet.
type Job struct {
	id        uint64
	root      func(*W)
	rt        *Runtime
	submitted int64 // monoNow at Submit; zero unless a sink consumes KindJobDone

	// qnext is the intrusive link threading a Job no worker has taken yet
	// through admitState's ready list; admitState.mu guards it.
	qnext *Job

	// done is the completion state Done and Release read: nil while the
	// job is pending and no Done caller waits, that caller's channel while
	// one does, &closedChan once complete. Done moves it nil → channel by
	// CAS; the completer Swaps in &closedChan exactly once per generation,
	// after the result fields below are written, and closes the channel the
	// Swap returned (if any).
	done atomic.Pointer[chan struct{}]

	// sem is what Wait, Err, Seq and Release block on: one count, added by
	// newJob and released by finish after the done Swap and the channel
	// close. That release is the completer's last touch of the Job, so a
	// Release, which waits on sem too, cannot pool the handle while its
	// completer still holds it.
	sem sync.WaitGroup

	// The fields below are written exactly once, before done flips, and
	// read only after observing completion. err is the *TaskPanic exec
	// captured, ErrClosed or ErrDrained, or nil.
	err error
	seq uint64

	// Stats snapshot, allocated and computed by the first Wait, so a job
	// whose stats nobody reads pays neither the O(P×fields) counter
	// aggregation nor the snapshot's 352 bytes in every Submit. A plain
	// mutex and pointer rather than sync.Once because pooled Jobs must be
	// resettable.
	statsMu sync.Mutex
	stats   *Stats
}

// ID returns the job's submission-order identifier (1-based; assigned by
// Submit, so it orders jobs by arrival).
func (j *Job) ID() uint64 { return j.id }

// Done returns a channel closed when the job completes (including refused
// and drained jobs), for select-based composition. The channel is
// allocated on first use; for an already-completed job Done returns a
// shared closed channel without allocating. Wait, Err and Seq do not use
// it: a caller that only blocks should call one of them.
func (j *Job) Done() <-chan struct{} {
	for {
		if p := j.done.Load(); p != nil {
			return *p // a waiter's channel, or closedChan once complete
		}
		ch := make(chan struct{})
		if j.done.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// completed reports whether the job has finished.
func (j *Job) completed() bool { return j.done.Load() == &closedChan }

// finish publishes the job's completion (the result fields are already
// written) and releases every waiter. The Swap is the completer's only
// access to done: whatever channel a Done caller published before it is
// returned here and closed here, and one published after it cannot exist
// — Done's CAS expects nil — so the close is exactly-once. The semaphore
// release comes last: a Release waits for it, so nothing here can touch a
// Job that already belongs to its next submission.
func (j *Job) finish() {
	if p := j.done.Swap(&closedChan); p != nil {
		close(*p)
	}
	j.sem.Done()
}

// wait blocks until the job completes. It allocates nothing: a completed
// job costs one atomic load, a running one parks on sem.
func (j *Job) wait() { j.sem.Wait() }

// Wait blocks until the job completes and returns a runtime Stats
// snapshot. The snapshot is computed lazily on the first Wait after
// completion (and cached on the Job), so jobs whose stats nobody reads —
// the common serving case — never pay the per-slot counter aggregation.
// Unlike the old one-shot Run it never panics; inspect Err for a captured
// root panic.
func (j *Job) Wait() Stats {
	j.wait()
	j.statsMu.Lock()
	if j.stats == nil {
		s := j.rt.Stats()
		j.stats = &s
	}
	s := *j.stats
	j.statsMu.Unlock()
	return s
}

// Err blocks until the job completes and reports how it ended: nil for a
// clean run, the *TaskPanic that escaped the root (errors.As-compatible
// with the panic value it wraps), or ErrClosed/ErrDrained for jobs
// admission never ran.
func (j *Job) Err() error {
	j.wait()
	return j.err
}

// Seq blocks until the job completes and returns its completion rank
// (1-based): jobs are numbered in the order they finish, which under
// concurrent submission is generally not submission order.
func (j *Job) Seq() uint64 {
	j.wait()
	return j.seq
}

// Release recycles a completed Job into jobPool, where a later Submit
// picks it up without allocating. Release panics if the job has not
// completed. Handoff rules: the caller must be the handle's
// last user — after Release no Job method may be called and no previously
// returned Done channel consulted, and Release must not race any other
// method on the same handle (completion itself does not count: Release
// after Done's channel closed, or after Wait/Err, is always safe). It
// waits for the completer's semaphore release, which may still be under
// way when Done's channel has closed, before it resets the handle. Release
// is optional; an unreleased Job is simply garbage-collected.
func (j *Job) Release() {
	if !j.completed() {
		panic("core: Release of an incomplete Job")
	}
	j.sem.Wait()
	j.rt = nil
	j.id = 0
	j.root = nil
	j.submitted = 0
	j.err = nil
	j.seq = 0
	j.stats = nil
	j.done.Store(nil)
	jobPool.Put(j)
}

// jobPool recycles released Jobs for every Runtime. Its hoard bound is the
// GC's: a pooled Job nobody takes is dropped within two collections.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// lifeState is the Runtime's serving lifecycle state, admitState.life.
type lifeState int

const (
	lifeIdle    lifeState = iota // never started; Submit panics
	lifeServing                  // Start ran; Submit accepted
	lifeClosing                  // Close running; Submit rejected
	lifeClosed                   // Close returned; Submit rejected, Start accepted
)

// admitState is the admission-control half of the serving lifecycle: the
// lifecycle state, the inflight count, the ready list of submitted jobs no
// worker has taken yet and the job counters. mu guards all of them, and
// every admission decision, ready-list link, completion release and
// lifecycle transition is made holding it. nready alone is also read
// without it.
type admitState struct {
	// What every Submit, every root taken and every completion writes, next
	// to the mutex, so that a job moves one cache line between submitter,
	// worker and completer (DESIGN.md §7).
	mu       sync.Mutex
	life     lifeState
	inflight int64 // admitted, not yet completed
	jobs     jobCounts

	// The ready list: every submitted job no worker has taken yet, oldest
	// first, linked through Job.qnext. Its first nready jobs are admitted
	// and wait for a worker; the nqueued behind them wait for admission.
	// nready is written under mu and loaded without it by every failed
	// steal sweep (nextRoot) and the parker's peek.
	head, tail *Job
	nready     atomic.Int64
	nqueued    int

	max     int           // Config.MaxInflight (0 = unlimited)
	drained chan struct{} // set while a Close waits; closed and cleared once drained
}

// jobCounts are the Stats job counters. submitted is also the last job ID
// handed out.
type jobCounts struct {
	submitted, admitted, shed, drained, completed int64
}

// rank is the completion rank (Job.Seq) of the job resolved last: every
// rank is handed out together with exactly one shed (refused while
// closing), drained or completed count.
func (c *jobCounts) rank() uint64 {
	return uint64(c.shed + c.drained + c.completed)
}

// promoteLocked is the one admission rule: while a job waits and one more
// fits the inflight bound, admit the oldest, which moves no job, only the
// end of the admitted prefix. It returns how many it admitted; the caller
// wakes a thief per job after unlocking (publish-then-wake, the Dekker pair
// with the park lot's free slots that Fork uses). Every Submit and every
// completion runs it, so nqueued > 0 implies the bound is full: a new job is
// admitted exactly when nothing waits ahead of it and it fits.
func (a *admitState) promoteLocked() int {
	n := 0
	for a.nqueued > 0 && (a.max <= 0 || a.inflight < int64(a.max)) {
		a.nqueued--
		a.inflight++
		a.jobs.admitted++
		a.nready.Add(1)
		n++
	}
	return n
}

// rejectLocked resolves a job admission never ran — submitted while
// closing, or drained — counting it and giving it a completion rank.
// The caller publishes it with j.finish after unlocking.
func (a *admitState) rejectLocked(j *Job, err error) {
	if err == ErrDrained {
		a.jobs.drained++
	} else {
		a.jobs.shed++
	}
	j.err = err
	j.seq = a.jobs.rank()
}

// checkDrainedLocked closes the drain gate a Close waits on once no
// inflight or queued jobs are left, and clears it. The gate exists only
// while the runtime is closing.
func (a *admitState) checkDrainedLocked() {
	if a.drained != nil && a.inflight == 0 && a.nqueued == 0 {
		close(a.drained)
		a.drained = nil
	}
}

// Start transitions the runtime from idle (or closed) to serving: the park
// lot opens and every worker slot is given to a thief goroutine, which
// parks when idle. Workers stay up — across any number of Submits —
// until Close. Start panics if the runtime is already serving or closing;
// use Run for self-managing one-shot execution.
func (rt *Runtime) Start() {
	if !rt.ensureStarted() {
		panic("core: Start on an already-started Runtime")
	}
}

// ensureStarted starts the runtime if no workers are up (never started, or
// closed), reporting whether this call performed the start (false when
// already serving). It panics during Close: the caller raced a shutdown.
func (rt *Runtime) ensureStarted() bool {
	a := &rt.admit
	a.mu.Lock()
	switch a.life {
	case lifeServing:
		a.mu.Unlock()
		return false
	case lifeClosing:
		a.mu.Unlock()
		panic("core: Start while the Runtime is closing")
	}
	a.life = lifeServing
	a.mu.Unlock()

	rt.park.open()
	for _, slot := range rt.workers {
		rt.spawnThief(slot)
	}
	return true
}

// newJob builds (or recycles) the Job for one submission and takes the
// count on its semaphore that finish releases; its ID is assigned under the
// admission mutex. The submit-time clock read exists only when a sink
// consumes KindJobDone — untraced serving pays no clock read per job.
func (rt *Runtime) newJob(root func(*W)) *Job {
	j := jobPool.Get().(*Job)
	j.rt = rt
	j.root = root
	if rt.stampJobs {
		j.submitted = monoNow()
	}
	j.sem.Add(1)
	return j
}

// clockBase anchors monoNow.
var clockBase = time.Now()

// monoNow reads the monotonic clock as nanoseconds since clockBase: a Job's
// submit stamp in one word instead of a time.Time's three.
func monoNow() int64 { return int64(time.Since(clockBase)) }

// Submit injects root as an independent top-level computation, returning
// a Job handle immediately — Submit never blocks. The root is picked up by
// the first worker whose steal sweep comes up empty, so running
// computations are not preempted. A job over Config.MaxInflight waits on
// the ready list behind the admitted ones and is admitted in submission
// order as running jobs complete. Submit panics on a runtime that was never
// started — call Start first (or use Run, which manages the lifecycle
// itself); on one that is closing or closed the Job completes with
// ErrClosed, counted in Stats.JobsShed, so a submitter racing Close is
// refused, never panicked.
//
// The whole decision — lifecycle, link, admission — and the job's ID and
// JobsSubmitted count are taken in one hold of the admission mutex; a
// submission refused for an idle runtime is not counted. The job joins the
// list's tail and is admitted by promoteLocked, the rule a completion runs
// under the same mutex, so capacity cannot free up between the fit check
// and the link.
func (rt *Runtime) Submit(root func(*W)) *Job {
	j := rt.newJob(root)
	a := &rt.admit
	a.mu.Lock()
	if a.life == lifeIdle {
		a.mu.Unlock()
		panic("core: Submit on an idle Runtime (call Start first)")
	}
	a.jobs.submitted++
	j.id = uint64(a.jobs.submitted)
	if a.life != lifeServing {
		a.rejectLocked(j, ErrClosed)
		a.mu.Unlock()
		j.finish()
		return j
	}
	if a.tail == nil {
		a.head = j
	} else {
		a.tail.qnext = j
	}
	a.tail = j
	a.nqueued++
	n := a.promoteLocked()
	a.mu.Unlock()
	rt.wake(n)
	return j
}

// nextRoot claims the oldest admitted root — the list's head — as a task,
// if any, so roots start in admission order. Called by thieves only after a
// full steal sweep failed: stolen work (continuing an in-flight
// computation, draining its suspended stacks) takes priority over opening a
// new root, which keeps the live-root set — and with it the space bound's P
// multiplier — as small as the load allows. The empty case, which ends every failed
// sweep, is one atomic load and takes no lock.
func (rt *Runtime) nextRoot() (task, bool) {
	a := &rt.admit
	if a.nready.Load() == 0 {
		return task{}, false
	}
	a.mu.Lock()
	if a.nready.Load() == 0 {
		a.mu.Unlock()
		return task{}, false // another thief took it
	}
	j := a.head
	a.head = j.qnext
	if a.head == nil {
		a.tail = nil
	}
	j.qnext = nil
	a.nready.Add(-1)
	a.mu.Unlock()
	return task{fn: runJobRoot, arg: unsafe.Pointer(j), bytes: int32(rt.cfg.FrameBytes)}, true
}

// completeJob finishes j after its root returned (or panicked; exec left
// the captured panic in j.err): emit the request-latency event, then in one
// hold of the admission mutex stamp the completion rank, count the job,
// release its inflight slot, admit waiting jobs that now fit
// (promoteLocked) and ring a waiting Close's drain gate — then wake one
// thief per admitted job, and only after that publish completion.
// No Stats snapshot is taken here — it is computed lazily on first Wait.
func (rt *Runtime) completeJob(slot int, j *Job) {
	if rt.trc.Wants(trace.KindJobDone) {
		rt.trc.Emit(slot, trace.KindJobDone, int64(j.id), time.Duration(monoNow()-j.submitted))
	}

	a := &rt.admit
	a.mu.Lock()
	a.jobs.completed++
	j.seq = a.jobs.rank()
	a.inflight--
	promoted := a.promoteLocked()
	a.checkDrainedLocked()
	a.mu.Unlock()
	rt.wake(promoted)

	j.finish()
}

// Close drains the runtime and stops its workers: no new submissions are
// accepted, every admitted job (running or waiting for a worker) runs to
// completion, and — while ctx lasts — jobs still waiting for admission are
// admitted as capacity frees up. If ctx expires first, the jobs never
// admitted are abandoned (each such Job completes with ErrDrained, counted
// in Stats.JobsDrained) and Close still waits for the admitted jobs, which
// always finish. Teardown then parks nothing: thieves
// unwind, stacks return to the pool, the trace flushes, and the runtime
// may be started (or Run) again.
//
// A nil ctx means wait indefinitely. Close returns ctx's error if the drain
// was forced and nil otherwise. Calling Close on an idle or already closed
// runtime is a no-op. Close must not be called concurrently with itself.
func (rt *Runtime) Close(ctx context.Context) error {
	a := &rt.admit
	a.mu.Lock()
	switch a.life {
	case lifeIdle, lifeClosed:
		a.mu.Unlock()
		return nil
	case lifeClosing:
		a.mu.Unlock()
		panic("core: concurrent Close calls on one Runtime")
	}
	a.life = lifeClosing
	var drained chan struct{}
	if a.inflight > 0 || a.nqueued > 0 {
		drained = make(chan struct{})
		a.drained = drained
	}
	a.mu.Unlock()

	var err error
	if drained != nil {
		if ctx == nil {
			<-drained
		} else {
			select {
			case <-drained:
			case <-ctx.Done():
				err = ctx.Err()
				rt.abandonQueued()
				<-drained
			}
		}
	}

	// Quiesced: no admitted work remains anywhere. Tear down exactly as
	// the old per-Run epilogue did — release every listed goroutine, so the
	// lot holds no slot and no goroutine, and any thief blocked in a bounded
	// pool's Take; wait for every worker goroutine to unwind, then reopen
	// the pool for the next Start.
	rt.park.close()
	rt.pool.Close()
	rt.park.live.Wait()
	rt.trc.Flush()
	rt.pool.Reopen()

	// Closed, not idle: a submitter that lost the race past this point is
	// refused with ErrClosed like one that lost it a moment earlier.
	a.mu.Lock()
	a.life = lifeClosed
	a.mu.Unlock()
	return err
}

// abandonQueued fails every job still waiting for admission with
// ErrDrained — the forced half of Close — by cutting the ready list behind
// its admitted prefix. Admitted jobs are untouched; they always run to
// completion, so JobsAdmitted == JobsCompleted holds at quiescence even
// after a forced drain. A job waits only while the bound is full, so the
// walk to the cut is at most MaxInflight long.
func (rt *Runtime) abandonQueued() {
	a := &rt.admit
	a.mu.Lock()
	var cut *Job
	if a.nqueued > 0 {
		link, last := &a.head, (*Job)(nil) // last: the youngest admitted job
		for i := a.nready.Load(); i > 0; i-- {
			last = *link
			link = &last.qnext
		}
		cut, *link, a.tail = *link, nil, last
		a.nqueued = 0
		for j := cut; j != nil; j = j.qnext {
			a.rejectLocked(j, ErrDrained)
		}
	}
	a.checkDrainedLocked()
	a.mu.Unlock()
	// A finished job may be released and resubmitted at once: unlink first.
	for cut != nil {
		j := cut
		cut, j.qnext = j.qnext, nil
		j.finish()
	}
}

// InflightJobs returns the number of admitted, not-yet-completed Jobs
// (exact at the moment of the call; 0 at quiescence).
func (rt *Runtime) InflightJobs() int {
	a := &rt.admit
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.inflight)
}

// QueuedJobs returns the number of Jobs waiting for admission plus
// admitted roots not yet picked up by a worker (exact at the moment of the
// call; 0 at quiescence).
func (rt *Runtime) QueuedJobs() int {
	a := &rt.admit
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nqueued + int(a.nready.Load())
}
