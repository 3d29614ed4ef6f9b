package check

import (
	"errors"
	"fmt"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/sim"
	"fibril/internal/vm"
)

// The oracles. Each takes a generated program, the exact structural
// metrics of its invocation tree (invoke.Analyze), and one executor's
// observables, and returns every invariant violation found, tagged with
// the executor label and the program seed so any failure is replayable
// with `fibril-check -seed`.
//
// The invariants come in three families:
//
//   - Completeness/exactly-once: every node executed exactly once (the
//     busy-leaves corollary that no fork is lost and no fork runs twice),
//     and at quiescence no deque holds work and no thief stays parked.
//   - Counter conservation: the scheduler counters must satisfy the flow
//     equations of the child-stealing protocol — Forks and Calls match the
//     tree exactly; every committed suspension is resumed exactly once;
//     a frame suspends only because one of its children was stolen, so
//     Suspends ≤ Steals ≤ Forks; unmap/madvise/remap counters follow the
//     strategy's stack-management discipline; the pool never creates a
//     stack it doesn't hand out.
//   - Space: per-stack high-water and machine-wide resident pages stay
//     under envelopes derived from the paper's Theorem 4.1/4.2 quantities
//     S1 (serial stack high-water) and D (fibril depth). The real
//     runtime's help-first substitution admits more than S1 bytes on one
//     stack (a join may inline-drain a pending child of a *shallower*
//     frame onto the current stack, nesting up to one serial path per
//     fibril level), so the sound per-stack envelope is (D+1)·(S1p+1)
//     pages, not S1p; the strict paper bound is asserted where it does
//     hold, on the work-first simulator engine.
type violations struct {
	seed  uint64
	label string
	errs  []error
}

func (v *violations) failf(format string, args ...any) {
	v.errs = append(v.errs, fmt.Errorf("[%s seed=%#x] %s", v.label, v.seed, fmt.Sprintf(format, args...)))
}

func (v *violations) err() error { return errors.Join(v.errs...) }

// checkCounts asserts exactly-once execution: the executed multiset equals
// the program's node set — less, in a panic-injected program, the nodes no
// body reached (Program.Expected), so a child forked and then abandoned by a
// panic is owed its one execution like any other.
func (v *violations) checkCounts(p *Program, counts []uint32) {
	if len(counts) != p.Nodes {
		v.failf("count array has %d slots, program has %d nodes", len(counts), p.Nodes)
		return
	}
	bad := 0
	for id, want := range p.Expected() {
		if c := counts[id]; c != want {
			if bad < 5 {
				v.failf("node n%d executed %d times, want %d", id, c, want)
			}
			bad++
		}
	}
	if bad > 5 {
		v.failf("... and %d more multiplicity violations", bad-5)
	}
}

// checkQuiescent asserts busy-leaves quiescence: the run (or the serving
// runtime's Close) may not return while work, a parked thief or an admitted
// job remains.
func (v *violations) checkQuiescent(when string, queued, parked, inflight int) {
	if queued != 0 {
		v.failf("%d tasks left in deques after %s", queued, when)
	}
	if parked != 0 {
		v.failf("%d thieves still parked after %s", parked, when)
	}
	if inflight != 0 {
		v.failf("InflightJobs=%d after %s, want 0", inflight, when)
	}
}

// perStackEnvelopePages is the sound per-linear-stack high-water envelope
// for help-first execution, in pages (see the package comment above).
func perStackEnvelopePages(m invoke.Metrics, capacityPages int) int {
	s1p := vm.PageAlign(int(m.MaxStackBytes))
	env := (m.FibrilDepth + 1) * (s1p + 1)
	if env > capacityPages {
		env = capacityPages
	}
	return env
}

// CheckReal runs every oracle that applies to a completed (non-panicking)
// real-runtime execution.
func CheckReal(p *Program, m invoke.Metrics, e RealExec) error {
	v := &violations{seed: p.Seed, label: e.Label}
	st := e.Stats

	if e.Recovered != nil {
		v.failf("run panicked unexpectedly: %v", e.Recovered)
		return v.err() // counters are meaningless after an unwound run
	}
	v.checkCounts(p, e.Counts)
	v.checkQuiescent("Run", e.Queued, e.Parked, e.Inflight)

	// Serving-lifecycle conservation: a one-shot Run is exactly one Submit
	// on the Start/Submit/Close machinery, so the job counters must read
	// one submission, one admission, one completion, nothing shed or
	// drained — the K=1 instance of
	// JobsSubmitted == JobsShed + JobsDrained + JobsCompleted.
	if st.JobsSubmitted != 1 || st.JobsAdmitted != 1 || st.JobsCompleted != 1 {
		v.failf("one Run reads JobsSubmitted=%d JobsAdmitted=%d JobsCompleted=%d, want 1/1/1",
			st.JobsSubmitted, st.JobsAdmitted, st.JobsCompleted)
	}
	if st.JobsShed != 0 || st.JobsDrained != 0 {
		v.failf("one Run shed %d / drained %d jobs, want 0/0", st.JobsShed, st.JobsDrained)
	}

	// Structural conservation: the scheduler executed exactly the tree's
	// edges. (Forks excludes the root: it is Run's argument, not a fork.)
	// A lazy edge resolves at run time into either a fork or a call, so
	// with lazy edges present the exact equalities relax to the
	// conservation law — every edge accounted for exactly once, forks and
	// calls each inside the [unconditional, unconditional+lazy] range.
	if p.LazyEdges == 0 {
		if st.Forks != int64(p.Forks) {
			v.failf("Stats.Forks=%d, tree has %d fork edges", st.Forks, p.Forks)
		}
		if st.Calls != int64(p.Calls) {
			v.failf("Stats.Calls=%d, tree has %d call edges", st.Calls, p.Calls)
		}
	} else {
		lazy := int64(p.LazyEdges)
		if st.Forks+st.Calls != int64(p.Forks+p.Calls)+lazy {
			v.failf("Stats.Forks=%d + Stats.Calls=%d != forks %d + calls %d + lazy %d",
				st.Forks, st.Calls, p.Forks, p.Calls, p.LazyEdges)
		}
		if st.Forks < int64(p.Forks) || st.Forks > int64(p.Forks)+lazy {
			v.failf("Stats.Forks=%d outside [%d, %d] (lazy edges %d)",
				st.Forks, p.Forks, int64(p.Forks)+lazy, p.LazyEdges)
		}
		if st.Calls < int64(p.Calls) || st.Calls > int64(p.Calls)+lazy {
			v.failf("Stats.Calls=%d outside [%d, %d] (lazy edges %d)",
				st.Calls, p.Calls, int64(p.Calls)+lazy, p.LazyEdges)
		}
	}

	// Suspension flow: every committed suspension is resumed exactly once,
	// a frame suspends only if one of its children was stolen, and steals
	// only take forked tasks.
	if st.Suspends != st.Resumes {
		v.failf("Suspends=%d != Resumes=%d", st.Suspends, st.Resumes)
	}
	if st.Suspends > st.Steals {
		v.failf("Suspends=%d > Steals=%d (a frame suspended with no stolen child)", st.Suspends, st.Steals)
	}
	if st.Steals > st.Forks {
		v.failf("Steals=%d > Forks=%d (stole something never forked)", st.Steals, st.Forks)
	}
	if st.Workers == 1 {
		// With one worker there is nobody to steal, hence nothing to
		// suspend for: the run must degenerate to the serial elision.
		if st.Steals != 0 || st.Suspends != 0 {
			v.failf("P=1 run stole %d / suspended %d times", st.Steals, st.Suspends)
		}
	}

	// Stack-management discipline per strategy: the paper's rule (Listing 3
	// line 63) is that every suspend unmaps, there and then — with or
	// without a ceiling.
	if st.Strategy == core.StrategyFibril {
		if st.Unmaps != st.Suspends {
			v.failf("Unmaps=%d != Suspends=%d", st.Unmaps, st.Suspends)
		}
	} else if st.Unmaps != 0 {
		v.failf("strategy %v performed %d unmaps, want 0", st.Strategy, st.Unmaps)
	}
	// RSS-ceiling discipline: with no ceiling the pressure valve may never
	// fire; with one, every madvise call and page is attributed either to
	// a suspend-path unmap or to a pool reclaim.
	if e.Mem.MaxResidentPages == 0 &&
		(st.CeilingHits != 0 || st.PoolReclaims != 0 || st.ReclaimedPages != 0) {
		v.failf("no ceiling configured but hits=%d poolReclaims=%d reclaimedPages=%d",
			st.CeilingHits, st.PoolReclaims, st.ReclaimedPages)
	}
	switch st.Strategy {
	case core.StrategyFibril:
		if st.VM.MadviseCalls != st.Unmaps+st.PoolReclaims {
			v.failf("VM.MadviseCalls=%d != Unmaps=%d + PoolReclaims=%d",
				st.VM.MadviseCalls, st.Unmaps, st.PoolReclaims)
		}
		if st.VM.MadvisedPages != st.UnmappedPages+st.ReclaimedPages {
			v.failf("VM.MadvisedPages=%d != UnmappedPages=%d + ReclaimedPages=%d",
				st.VM.MadvisedPages, st.UnmappedPages, st.ReclaimedPages)
		}
		if st.VM.RemapCalls != 0 {
			v.failf("madvise strategy performed %d remaps", st.VM.RemapCalls)
		}
	default:
		if st.VM.MadviseCalls != st.PoolReclaims || st.VM.RemapCalls != 0 {
			v.failf("strategy %v touched unmap machinery (madvise=%d poolReclaims=%d remap=%d)",
				st.Strategy, st.VM.MadviseCalls, st.PoolReclaims, st.VM.RemapCalls)
		}
		if st.VM.MadvisedPages != st.ReclaimedPages {
			v.failf("strategy %v: VM.MadvisedPages=%d != ReclaimedPages=%d",
				st.Strategy, st.VM.MadvisedPages, st.ReclaimedPages)
		}
	}

	// Arena conservation (the zero-allocation fork path). On a non-panic
	// run every harness release site executes, so acquires and releases
	// balance exactly, and drops are a subset of the release flow.
	if st.ArenaAcquires != st.ArenaReleases {
		v.failf("ArenaAcquires=%d != ArenaReleases=%d", st.ArenaAcquires, st.ArenaReleases)
	}
	if st.ArenaDrops > st.ArenaReleases {
		v.failf("ArenaDrops=%d > ArenaReleases=%d", st.ArenaDrops, st.ArenaReleases)
	}

	// Pool conservation: the pool is serialized and creates a stack only
	// when none is free, so the creations are the peak checkout.
	if st.MaxStacksUsed != st.StacksCreated {
		v.failf("MaxStacksUsed=%d != StacksCreated=%d", st.MaxStacksUsed, st.StacksCreated)
	}
	if int64(st.StacksCreated) > int64(st.Workers)+st.Suspends {
		v.failf("StacksCreated=%d > Workers+Suspends=%d", st.StacksCreated, int64(st.Workers)+st.Suspends)
	}
	if st.Strategy != core.StrategyCilkPlus && st.PoolStalls != 0 {
		v.failf("unbounded pool recorded %d stalls", st.PoolStalls)
	}

	// Virtual-space conservation: stacks are mapped once and never
	// unmapped during a run.
	if want := int64(st.StacksCreated) * int64(harnessStackPages); st.VM.VirtualPages != want {
		v.failf("VM.VirtualPages=%d != StacksCreated×%d=%d", st.VM.VirtualPages, harnessStackPages, want)
	}
	if st.VM.MUnmapCalls != 0 {
		v.failf("run performed %d munmaps", st.VM.MUnmapCalls)
	}
	// Every page ever resident was faulted in at least once.
	if st.VM.PageFaults < st.VM.MaxRSSPages {
		v.failf("PageFaults=%d < MaxRSSPages=%d", st.VM.PageFaults, st.VM.MaxRSSPages)
	}

	// Space envelopes (see package comment): per-stack high-water, and
	// machine-wide resident pages bounded by the stack population times the
	// per-stack envelope (the pool does not unmap returned stacks, so
	// residue accumulates per stack, never beyond its own high-water).
	env := perStackEnvelopePages(m, harnessStackPages)
	if e.MaxHW > env {
		v.failf("per-stack high-water %d pages > envelope (D+1)(S1p+1)=%d (S1=%dB D=%d)",
			e.MaxHW, env, m.MaxStackBytes, m.FibrilDepth)
	}
	if limit := int64(st.StacksCreated) * int64(env); st.VM.MaxRSSPages > limit {
		v.failf("MaxRSSPages=%d > stacks(%d)×envelope(%d)=%d",
			st.VM.MaxRSSPages, st.StacksCreated, env, limit)
	}

	// Differential check of the observability plane: the streamed event
	// trace must reconcile with the counter shards (see trace.go).
	v.reconcileTrace(e.Trace, st)
	return v.err()
}

// CheckRealPanic runs the oracles that survive an intentionally panicking
// program: the injected panic must resurface from Run wrapped in a
// *core.TaskPanic, every node a body reached — abandoned children included —
// must have run exactly once and no other at all, and the runtime must still
// quiesce (no leaked work, no leaked thieves, balanced suspensions).
func CheckRealPanic(p *Program, e RealExec) error {
	v := &violations{seed: p.Seed, label: e.Label}
	if p.Panics == 0 {
		v.failf("CheckRealPanic on a program with no injected panics")
		return v.err()
	}
	var ip InjectedPanic
	switch r := e.Recovered.(type) {
	case nil:
		v.failf("program injects %d panics but Run returned normally", p.Panics)
		return v.err()
	case *core.TaskPanic:
		var ok bool
		if ip, ok = r.Value.(InjectedPanic); !ok {
			v.failf("TaskPanic wraps %T (%v), want check.InjectedPanic", r.Value, r.Value)
			return v.err()
		}
	default:
		v.failf("Run panicked with %T (%v), want *core.TaskPanic", r, r)
		return v.err()
	}
	if ip.Seed != p.Seed {
		v.failf("injected panic carries seed %#x", ip.Seed)
	}
	if ip.Node < 0 || ip.Node >= p.Nodes {
		v.failf("injected panic names unknown node %d", ip.Node)
	}
	v.checkCounts(p, e.Counts)
	v.checkQuiescent("panicked Run", e.Queued, e.Parked, e.Inflight)
	st := e.Stats
	// A panicking root still completes its Job — the panic is captured and
	// re-raised by Run, not leaked mid-flight — so the K=1 job conservation
	// law is identical to the clean-run one.
	if st.JobsSubmitted != 1 || st.JobsAdmitted != 1 || st.JobsCompleted != 1 {
		v.failf("panicked Run reads JobsSubmitted=%d JobsAdmitted=%d JobsCompleted=%d, want 1/1/1",
			st.JobsSubmitted, st.JobsAdmitted, st.JobsCompleted)
	}
	if st.JobsShed != 0 || st.JobsDrained != 0 {
		v.failf("panicked Run shed %d / drained %d jobs, want 0/0", st.JobsShed, st.JobsDrained)
	}
	if st.Suspends != st.Resumes {
		v.failf("Suspends=%d != Resumes=%d after panic", st.Suspends, st.Resumes)
	}
	if st.Forks > int64(p.Forks) {
		v.failf("Stats.Forks=%d > tree fork edges %d", st.Forks, p.Forks)
	}
	// A panic unwind skips release sites (the arena contract forbids
	// releasing a block an in-flight child may still reference), so the
	// balance law relaxes to an inequality.
	if st.ArenaReleases > st.ArenaAcquires {
		v.failf("ArenaReleases=%d > ArenaAcquires=%d under panic", st.ArenaReleases, st.ArenaAcquires)
	}
	return v.err()
}

// CheckSim runs every oracle that applies to a simulator execution.
func CheckSim(p *Program, m invoke.Metrics, e SimExec) error {
	v := &violations{seed: p.Seed, label: e.Label}
	r := e.Res

	v.checkCounts(p, e.Counts)
	if r.Tasks != int64(p.Nodes) {
		v.failf("Result.Tasks=%d, program has %d nodes", r.Tasks, p.Nodes)
	}
	// The simulator executes the canonical invocation tree, where every
	// lazy edge is a fork (laziness is a real-runtime scheduling choice).
	if r.Forks != int64(p.Forks+p.LazyEdges) {
		v.failf("Result.Forks=%d, tree has %d fork edges (%d unconditional + %d lazy)",
			r.Forks, p.Forks+p.LazyEdges, p.Forks, p.LazyEdges)
	}
	if r.Steals > r.Forks && !e.WorkFirst {
		v.failf("Steals=%d > Forks=%d", r.Steals, r.Forks)
	}
	if r.Suspends != r.Resumes {
		v.failf("Suspends=%d != Resumes=%d", r.Suspends, r.Resumes)
	}
	switch {
	case e.WorkFirst:
		// Work-first joiners may become thieves without unmapping (why
		// Table 2 has unmaps < steals); only a loose flow bound holds.
		if r.Unmaps > r.Suspends+r.Steals {
			v.failf("Unmaps=%d > Suspends+Steals=%d", r.Unmaps, r.Suspends+r.Steals)
		}
	case r.Strategy == core.StrategyFibril || r.Strategy == sim.StrategyFibrilMMap:
		if r.Unmaps != r.Suspends {
			v.failf("Unmaps=%d != Suspends=%d", r.Unmaps, r.Suspends)
		}
	default:
		if r.Unmaps != 0 {
			v.failf("strategy %s performed %d unmaps, want 0", sim.StrategyName(r.Strategy), r.Unmaps)
		}
	}
	if r.Strategy != core.StrategyCilkPlus && r.PoolStalls != 0 {
		v.failf("unbounded pool recorded %d stalls", r.PoolStalls)
	}
	if r.MaxStacksUsed > r.StacksCreated {
		v.failf("MaxStacksUsed=%d > StacksCreated=%d", r.MaxStacksUsed, r.StacksCreated)
	}

	// Greedy scheduling lower bounds: no engine may finish faster than
	// T1/P or than the critical path.
	if r.Makespan < m.Work/int64(r.Workers) {
		v.failf("Makespan=%d < T1/P=%d", r.Makespan, m.Work/int64(r.Workers))
	}
	if r.Makespan < m.Span {
		v.failf("Makespan=%d < T∞=%d", r.Makespan, m.Span)
	}

	if r.VM.DummyTouches != 0 {
		v.failf("VM.DummyTouches=%d, want 0", r.VM.DummyTouches)
	}
	if r.VM.PageFaults < r.VM.MaxRSSPages {
		v.failf("PageFaults=%d < MaxRSSPages=%d", r.VM.PageFaults, r.VM.MaxRSSPages)
	}

	env := perStackEnvelopePages(m, harnessStackPages)
	if limit := int64(r.StacksCreated) * int64(env); r.VM.MaxRSSPages > limit {
		v.failf("MaxRSSPages=%d > stacks(%d)×envelope(%d)=%d",
			r.VM.MaxRSSPages, r.StacksCreated, env, limit)
	}
	if e.WorkFirst && r.Strategy == core.StrategyFibril {
		// Theorem 4.2's shape holds strictly under true continuation
		// stealing: P stacks of at most S1 pages each live at once, plus
		// one partially-used page per suspension depth.
		s1p := vm.PageAlign(int(m.MaxStackBytes))
		bound := int64(r.Workers) * int64(s1p+m.FibrilDepth+1)
		if r.VM.MaxRSSPages > bound {
			v.failf("work-first MaxRSSPages=%d > P(S1p+D+1)=%d (S1=%dB D=%d P=%d)",
				r.VM.MaxRSSPages, bound, m.MaxStackBytes, m.FibrilDepth, r.Workers)
		}
	}
	return v.err()
}
