package core

import (
	"fmt"
	"sync/atomic"

	"fibril/internal/vm"
)

// counters are one worker slot's scheduler counters, embedded in the slot
// (worker) in the group only its occupant writes, so the fork/steal hot
// paths increment an uncontended counter instead of ping-ponging a shared
// cache line across P cores; Stats sums the slots. The four counters bumped
// on every fork/join node (forks, calls, arenaAcquires, arenaReleases) are
// not even that: a W counts them in plain fields and adds them here in bulk
// (W.flushCounts). A W adds to the slot it occupies, w.slot, which a resume
// replaces, so there is nothing to re-bind when a W changes slots.
type counters struct {
	forks            atomic.Int64
	calls            atomic.Int64
	steals           atomic.Int64
	stealAttempts    atomic.Int64
	thiefParks       atomic.Int64
	restrictedSteals atomic.Int64
	suspends         atomic.Int64
	resumes          atomic.Int64
	unmaps           atomic.Int64
	unmappedPages    atomic.Int64
	spawnOverhead    atomic.Int64
	ceilingHits      atomic.Int64
	reclaimedPages   atomic.Int64
	poolReclaims     atomic.Int64
	arenaAcquires    atomic.Int64
	arenaReleases    atomic.Int64
	arenaDrops       atomic.Int64
}

// Stats is a snapshot of a Runtime's scheduler and memory counters — the
// raw material of the paper's Tables 2–4.
type Stats struct {
	Strategy Strategy
	Workers  int

	Forks            int64 // fibril_fork executions
	Calls            int64 // synchronous Call executions
	Steals           int64 // successful steals (Table 2 "steals")
	StealAttempts    int64 // steal probes of a visibly non-empty deque
	ThiefParks       int64 // times a thief searched out its budget, parked, and its peek came back empty
	RestrictedSteals int64 // inline steals by TBB joins
	Suspends         int64 // frame suspensions
	Resumes          int64 // frame resumptions
	Unmaps           int64 // unmap operations (Table 2 "unmaps")
	UnmappedPages    int64 // physical pages returned by those unmaps
	SpawnOverhead    int64 // modelled spawn-prologue events (Cilk Plus, TBB)

	// RSS-ceiling counters. Under Fibril every suspend
	// unmaps, so Unmaps == Suspends; the ceiling's reclaims are counted
	// apart from them, here.
	CeilingHits    int64 // RSS-ceiling crossings observed by workers
	ReclaimedPages int64 // pages reclaimed from free pooled stacks
	PoolReclaims   int64 // madvise calls issued by those pool reclaims

	// Scratch-arena counters (the zero-allocation fork path). For a
	// program whose acquire/release pairs all ran (no panic unwinds
	// skipping release sites) ArenaAcquires == ArenaReleases.
	ArenaAcquires int64 // AcquireScratch calls (free list or heap)
	ArenaReleases int64 // ReleaseScratch calls (free list or GC)
	ArenaDrops    int64 // releases dropped to the GC (the slot's list full)

	// Job-submission counters (the Start/Submit serving lifecycle; Run
	// counts too — it is one Submit). Every submitted Job resolves exactly
	// one way, so at quiescence
	// JobsSubmitted == JobsShed + JobsDrained + JobsCompleted and
	// JobsAdmitted == JobsCompleted (admitted jobs always run, even under
	// a forced drain; only never-admitted queue entries can be drained).
	JobsSubmitted int64 // Submit calls
	JobsAdmitted  int64 // jobs handed to the scheduler
	JobsShed      int64 // jobs refused because the runtime was closing or closed (ErrClosed)
	JobsDrained   int64 // queued jobs abandoned by a forced Close
	JobsCompleted int64 // admitted jobs that ran to completion

	StacksCreated int   // stacks ever mapped (Table 4 "# of stacks")
	MaxStacksUsed int   // most stacks simultaneously checked out; == StacksCreated
	PoolStalls    int64 // thieves that waited on a bounded pool (Cilk Plus), once each

	VM vm.Stats // page faults, RSS, mmap/madvise counters (Tables 2 and 4)
}

// Stats snapshots the runtime's counters, summing the slots' counters.
// At quiescence — after Run, after Close, whenever no task is running — it is
// exact. Taken while workers run, Forks, Calls, ArenaAcquires and
// ArenaReleases are lower bounds: each running worker counts those four on
// its own W and folds them in at the end of its base-level task and every
// countFlushForks forks (see W.flushCounts), so each trails its worker by
// less than that many forks' worth; they never run ahead and never go back.
func (rt *Runtime) Stats() Stats {
	rt.admit.mu.Lock()
	jobs := rt.admit.jobs
	rt.admit.mu.Unlock()
	s := Stats{
		Strategy:      rt.cfg.Strategy,
		Workers:       rt.cfg.Workers,
		JobsSubmitted: jobs.submitted,
		JobsAdmitted:  jobs.admitted,
		JobsShed:      jobs.shed,
		JobsDrained:   jobs.drained,
		JobsCompleted: jobs.completed,
		StacksCreated: rt.pool.Created(),
		MaxStacksUsed: rt.pool.MaxInUse(),
		PoolStalls:    rt.pool.Stalls(),
		VM:            rt.as.Snapshot(),
	}
	for _, slot := range rt.workers {
		s.Forks += slot.forks.Load()
		s.Calls += slot.calls.Load()
		s.Steals += slot.steals.Load()
		s.StealAttempts += slot.stealAttempts.Load()
		s.ThiefParks += slot.thiefParks.Load()
		s.RestrictedSteals += slot.restrictedSteals.Load()
		s.Suspends += slot.suspends.Load()
		s.Resumes += slot.resumes.Load()
		s.Unmaps += slot.unmaps.Load()
		s.UnmappedPages += slot.unmappedPages.Load()
		s.SpawnOverhead += slot.spawnOverhead.Load()
		s.CeilingHits += slot.ceilingHits.Load()
		s.ReclaimedPages += slot.reclaimedPages.Load()
		s.PoolReclaims += slot.poolReclaims.Load()
		s.ArenaAcquires += slot.arenaAcquires.Load()
		s.ArenaReleases += slot.arenaReleases.Load()
		s.ArenaDrops += slot.arenaDrops.Load()
	}
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf(
		"%s P=%d forks=%d steals=%d suspends=%d unmaps=%d stacks=%d faults=%d maxRSS=%dMB",
		s.Strategy, s.Workers, s.Forks, s.Steals, s.Suspends, s.Unmaps,
		s.StacksCreated, s.VM.PageFaults, s.VM.MaxRSSPages*vm.PageSize/(1<<20))
}
