package exper

import (
	"fmt"
	"runtime"
	"slices"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/table"
)

// ForkPathRow is one measurement of the fork-path experiment, shaped for
// machine consumption (-json): per-fork (or, for the loop legs,
// per-iteration) wall cost and heap allocations on the real runtime.
type ForkPathRow struct {
	Benchmark   string  `json:"benchmark"`
	Mode        string  `json:"mode"` // closure | forkarg | eager | lazy
	Workers     int     `json:"p"`
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp float64 `json:"allocs_op"`
	Forks       int64   `json:"forks"`
	// SpeedupVsClosure is closure-ns/this-ns, set on forkarg rows (and
	// lazy rows, against the eager baseline); > 1 means faster.
	SpeedupVsClosure float64 `json:"speedup_vs_closure,omitempty"`
}

// ForkPath measures the fork fast path on one worker (the Figure 3
// setting, where overhead is undiluted by stealing): on fib — almost no
// work per task, so the fork path dominates, and the one benchmark that
// keeps both fork implementations — the closure-fork baseline
// (ParallelClosure) against the zero-allocation ForkArg implementation
// (Parallel); then the loop engine, eager recursive splitting against
// steal-driven lazy splitting. ns/op is per fork for fib and per iteration
// for the loop legs; allocs/op comes from the Mallocs delta across the
// timed repetitions, first run excluded so arenas and stacks are warm.
func ForkPath(o Options) ([]ForkPathRow, *table.Table) {
	o = o.withDefaults()
	t := &table.Table{
		Title: "Fork path: cost and allocations, closure vs forkarg and eager vs lazy loops (real runtime, P=1)",
		Header: []string{"benchmark", "mode", "P", "ns/op", "allocs/op",
			"forks", "vs-baseline"},
	}
	var rows []ForkPathRow
	add := func(r ForkPathRow) {
		rows = append(rows, r)
		vs := ""
		if r.SpeedupVsClosure > 0 {
			vs = fmt.Sprintf("%.2f", r.SpeedupVsClosure)
		}
		t.Add(r.Benchmark, r.Mode, r.Workers, int64(r.NsPerOp),
			fmt.Sprintf("%.2f", r.AllocsPerOp), r.Forks, vs)
	}
	if s := bench.Fib; len(o.Benches) == 0 || slices.Contains(o.Benches, s.Name) {
		closure := o.measureForkPath(s.Name, "closure", s.Default, s.ParallelClosure)
		forkarg := o.measureForkPath(s.Name, "forkarg", s.Default, s.Parallel)
		if closure.NsPerOp > 0 && forkarg.NsPerOp > 0 {
			forkarg.SpeedupVsClosure = closure.NsPerOp / forkarg.NsPerOp
		}
		add(closure)
		add(forkarg)
	}
	if len(o.Benches) == 0 || slices.Contains(o.Benches, "for-loop") {
		eager := o.measureLoop("eager", eagerLoop)
		lazy := o.measureLoop("lazy", lazyLoop)
		if eager.NsPerOp > 0 && lazy.NsPerOp > 0 {
			lazy.SpeedupVsClosure = eager.NsPerOp / lazy.NsPerOp
		}
		add(eager)
		add(lazy)
	}
	return rows, t
}

// measureForkPath times reps runs of one benchmark implementation on a
// single worker and attributes wall time and heap allocations per fork.
func (o Options) measureForkPath(name, mode string, a bench.Arg,
	run func(*core.W, bench.Arg) uint64) ForkPathRow {
	rt := o.newRuntime(core.Config{Workers: 1, StackPages: 4096})
	var sink uint64
	// Warm run: stacks mapped, deque rings grown, arena hoards filled.
	rt.Run(func(w *core.W) { sink += run(w, a) })
	forks0 := rt.Stats().Forks
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	summary := timeIt(o.Reps, func() {
		rt.Run(func(w *core.W) { sink += run(w, a) })
	})
	runtime.ReadMemStats(&m1)
	_ = sink
	forksPerRun := (rt.Stats().Forks - forks0) / int64(o.Reps)
	if forksPerRun == 0 {
		forksPerRun = 1
	}
	ops := float64(o.Reps) * float64(forksPerRun)
	return ForkPathRow{
		Benchmark:   name,
		Mode:        mode,
		Workers:     1,
		NsPerOp:     summary.Mean * 1e9 / float64(forksPerRun),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
		Forks:       forksPerRun,
	}
}

// Loop-leg workload: enough iterations that splitting cost is visible,
// grain small enough that the eager splitter's closure traffic shows.
const (
	loopN     = 1 << 18
	loopGrain = 64
)

func lazyLoop(w *core.W, sum *uint64) {
	core.LazyFor(w, 0, loopN, loopGrain, func(_ *core.W, i int) {
		*sum += uint64(i)
	})
}

// eagerLoop is the pre-lazy-splitting For: recursively fork one half
// down to the grain, unconditionally — the loop baseline.
func eagerLoop(w *core.W, sum *uint64) {
	var eager func(w *core.W, lo, hi int, out *uint64)
	eager = func(w *core.W, lo, hi int, out *uint64) {
		if hi-lo <= loopGrain {
			var s uint64
			for i := lo; i < hi; i++ {
				s += uint64(i)
			}
			*out = s
			return
		}
		mid := lo + (hi-lo)/2
		var fr core.Frame
		w.Init(&fr)
		var l, r uint64
		w.Fork(&fr, func(w *core.W) { eager(w, lo, mid, &l) })
		w.Call(func(w *core.W) { eager(w, mid, hi, &r) })
		w.Join(&fr)
		*out = l + r
	}
	var out uint64
	eager(w, 0, loopN, &out)
	*sum += out
}

// measureLoop is measureForkPath for the loop legs; ops are iterations,
// not forks, so eager and lazy rows are directly comparable even though
// the lazy engine forks far less.
func (o Options) measureLoop(mode string, loop func(*core.W, *uint64)) ForkPathRow {
	rt := o.newRuntime(core.Config{Workers: 1, StackPages: 4096})
	var sum uint64
	rt.Run(func(w *core.W) { loop(w, &sum) })
	forks0 := rt.Stats().Forks
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	summary := timeIt(o.Reps, func() {
		rt.Run(func(w *core.W) { loop(w, &sum) })
	})
	runtime.ReadMemStats(&m1)
	_ = sum
	ops := float64(o.Reps) * float64(loopN)
	return ForkPathRow{
		Benchmark:   "for-loop",
		Mode:        mode,
		Workers:     1,
		NsPerOp:     summary.Mean * 1e9 / loopN,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / ops,
		Forks:       (rt.Stats().Forks - forks0) / int64(o.Reps),
	}
}
