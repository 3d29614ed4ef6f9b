package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"fibril/internal/cacheline"
	"fibril/internal/vm"
)

// counterShard holds one worker slot's scheduler counters. The runtime
// keeps one shard per slot, so the fork/steal hot paths increment an
// uncontended counter instead of ping-ponging a shared cache line across P
// cores; Stats aggregates the shards. The four counters bumped on every
// fork/join node (forks, calls, arenaAcquires, arenaReleases) are not even
// that: a W counts them in plain fields and adds them here in bulk
// (W.flushCounts). Uncontended means one writer per
// shard: a W adds to the shard of the slot it occupies and re-binds when a
// resume hands it a different slot (see suspend). Each shard is rounded up
// to whole cacheline units (DESIGN.md §7), so neighbouring slots' shards —
// elements of one slice — never false-share.
type counterShard struct {
	counters
	_ [cacheline.Size - unsafe.Sizeof(counters{})%cacheline.Size]byte
}

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

// shard returns the counter shard for worker slot id.
func (rt *Runtime) shard(id int) *counterShard { return &rt.stats[id] }

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

// Stats snapshots the runtime's counters, aggregating the per-slot shards.
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
	for i := range rt.stats {
		sh := &rt.stats[i]
		s.Forks += sh.forks.Load()
		s.Calls += sh.calls.Load()
		s.Steals += sh.steals.Load()
		s.StealAttempts += sh.stealAttempts.Load()
		s.ThiefParks += sh.thiefParks.Load()
		s.RestrictedSteals += sh.restrictedSteals.Load()
		s.Suspends += sh.suspends.Load()
		s.Resumes += sh.resumes.Load()
		s.Unmaps += sh.unmaps.Load()
		s.UnmappedPages += sh.unmappedPages.Load()
		s.SpawnOverhead += sh.spawnOverhead.Load()
		s.CeilingHits += sh.ceilingHits.Load()
		s.ReclaimedPages += sh.reclaimedPages.Load()
		s.PoolReclaims += sh.poolReclaims.Load()
		s.ArenaAcquires += sh.arenaAcquires.Load()
		s.ArenaReleases += sh.arenaReleases.Load()
		s.ArenaDrops += sh.arenaDrops.Load()
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
