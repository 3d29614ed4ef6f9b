// Package exper regenerates every table and figure of the Fibril paper's
// evaluation (SPAA 2016, §5) from this reproduction's two measurement
// vehicles:
//
//   - Figure 3 (single-thread relative performance) runs the REAL
//     goroutine-based runtime against the serial implementations —
//     single-thread overhead is measurable even on a 1-CPU host;
//   - Figure 4 (speedup on 1–72 threads) and Tables 2–4 (steals/unmaps/
//     page faults, stack space, RSS) come from the deterministic
//     discrete-event simulator, which can sweep P to 72 regardless of the
//     host's core count;
//   - three ablations cover the paper's §4.3 design arguments: mmap vs
//     madvise unmap, the depth-restricted-stealing lower bound, and the
//     bounded stack pool of Cilk Plus. They are simulated too: the
//     serialized-mmap unmap and leapfrogging are strategies of the
//     simulator only (sim.StrategyFibrilMMap, sim.StrategyLeapfrog).
//
// Each experiment returns printable tables; cmd/fibril-bench is a thin
// front-end, and the repository-root benchmarks invoke the same code.
package exper

import (
	"fmt"
	"time"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/sim"
	"fibril/internal/stats"
	"fibril/internal/table"
	"fibril/internal/vm"
)

// Options selects experiment scale.
type Options struct {
	// Full selects the Sim input sizes and the paper's P grid (up to 72);
	// otherwise the Default inputs and a small grid keep runs quick.
	Full bool
	// Reps is the number of timing repetitions for real-runtime
	// measurements (the paper uses ten).
	Reps int
	// Benches restricts the benchmark set; empty means all of Table 1.
	Benches []string
	// HelpFirst switches the simulator experiments to the help-first
	// child-stealing engine (the Go runtime's substitution). The default
	// is the paper's own discipline: work-first continuation stealing.
	HelpFirst bool
	// Observe, when non-nil, is handed every real runtime an experiment
	// creates, before its first Run. cmd/fibril-bench's -serve flag uses
	// it to point the live /debug/vars metrics at the current runtime.
	Observe func(*core.Runtime)
}

// newRuntime creates a real runtime for an experiment leg, routing it
// through the Observe hook.
func (o Options) newRuntime(cfg core.Config) *core.Runtime {
	rt := core.NewRuntime(cfg)
	if o.Observe != nil {
		o.Observe(rt)
	}
	return rt
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	return o
}

func (o Options) arg(s *bench.Spec) bench.Arg {
	if o.Full {
		return s.Sim
	}
	return s.Default
}

func (o Options) pGrid() []int {
	if o.Full {
		return []int{1, 2, 4, 8, 12, 18, 24, 36, 48, 60, 72}
	}
	return []int{1, 2, 4, 8, 16}
}

func (o Options) specs() []*bench.Spec {
	if len(o.Benches) == 0 {
		all := bench.All()
		specs := make([]*bench.Spec, 0, len(all))
		for _, s := range all {
			if s.Name != "adversarial" { // ablation-only workload
				specs = append(specs, s)
			}
		}
		return specs
	}
	specs := make([]*bench.Spec, 0, len(o.Benches))
	for _, n := range o.Benches {
		s := bench.Get(n)
		if s == nil {
			panic("exper: unknown benchmark " + n)
		}
		specs = append(specs, s)
	}
	return specs
}

// timeIt returns the mean seconds of reps runs of f.
func timeIt(reps int, f func()) stats.Summary {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		xs = append(xs, time.Since(start).Seconds())
	}
	return stats.Of(xs)
}

// Fig3 reproduces Figure 3: performance of each runtime on ONE worker
// relative to the serial implementation (Tserial/T1; higher is better,
// 1.0 means no overhead).
func Fig3(o Options) *table.Table {
	o = o.withDefaults()
	strategies := []core.Strategy{
		core.StrategyFibril, core.StrategyCilkPlus, core.StrategyTBB,
	}
	t := &table.Table{
		Title: "Figure 3: relative performance on one worker (Tserial/T1)",
		Header: []string{"benchmark", "input", "Tserial(ms)",
			"fibril", "cilkplus", "tbb"},
	}
	for _, s := range o.specs() {
		a := o.arg(s)
		var sink uint64
		serial := timeIt(o.Reps, func() { sink += s.Serial(a) })
		row := []any{s.Name, a.String(), fmt.Sprintf("%.1f", serial.Mean*1e3)}
		for _, strat := range strategies {
			rt := o.newRuntime(core.Config{
				Workers: 1, Strategy: strat, StackPages: 4096,
			})
			par := timeIt(o.Reps, func() {
				rt.Run(func(w *core.W) { sink += s.Parallel(w, a) })
			})
			row = append(row, fmt.Sprintf("%.2f", serial.Mean/par.Mean))
		}
		t.Add(row...)
		_ = sink
	}
	return t
}

// fig4Strategies are the runtimes Figure 4 compares.
func fig4Strategies() []core.Strategy {
	return []core.Strategy{
		core.StrategyFibril, core.StrategyFibrilNoUnmap,
		core.StrategyCilkPlus, sim.StrategyCilkM, core.StrategyTBB,
	}
}

// Fig4 reproduces Figure 4 for one benchmark: simulated speedup
// (T1work/Tp) for each runtime across the worker grid. One table per
// benchmark keeps the series readable.
func Fig4(o Options, s *bench.Spec) *table.Table {
	o = o.withDefaults()
	a := o.arg(s)
	m := invoke.Analyze(s.Tree(a))
	t := &table.Table{
		Title: fmt.Sprintf("Figure 4 [%s %v]: simulated speedup vs workers (T1=%d T∞=%d parallelism=%.1f)",
			s.Name, a, m.Work, m.Span, m.Parallelism()),
		Header: []string{"P", "fibril", "fibril-nounmap", "cilkplus", "cilkm", "tbb"},
	}
	for _, p := range o.pGrid() {
		row := []any{p}
		for _, strat := range fig4Strategies() {
			if strat == sim.StrategyCilkM && o.HelpFirst {
				// The TLMM model exists in the work-first engine only.
				row = append(row, "n/a")
				continue
			}
			r := sim.Run(o.simConfig(strat, p), s.Tree(a))
			row = append(row, fmt.Sprintf("%.2f", float64(m.Work)/float64(r.Makespan)))
		}
		t.Add(row...)
	}
	return t
}

// simConfig builds the simulator config for strat at P = p in the engine o
// selects; sim.Config's defaults size the stacks per strategy.
func (o Options) simConfig(strat core.Strategy, p int) sim.Config {
	return sim.Config{Workers: p, Strategy: strat, WorkFirst: !o.HelpFirst}
}

// Table2 reproduces Table 2: steals and unmaps (Fibril) and page faults
// (Fibril / Cilk Plus / TBB) at P workers (the paper uses 72).
func Table2(o Options) *table.Table {
	o = o.withDefaults()
	p := 72
	if !o.Full {
		p = 16
	}
	t := &table.Table{
		Title: fmt.Sprintf("Table 2: profile of key operations on %d workers (simulated)", p),
		Header: []string{"benchmark", "steals", "unmaps",
			"faults-fibril", "faults-cilkplus", "faults-tbb"},
	}
	for _, s := range o.specs() {
		a := o.arg(s)
		fib := sim.Run(o.simConfig(core.StrategyFibril, p), s.Tree(a))
		cp := sim.Run(o.simConfig(core.StrategyCilkPlus, p), s.Tree(a))
		tbb := sim.Run(o.simConfig(core.StrategyTBB, p), s.Tree(a))
		t.Add(s.Name, fib.Steals, fib.Unmaps,
			fib.VM.PageFaults, cp.VM.PageFaults, tbb.VM.PageFaults)
	}
	return t
}

// Table3 reproduces Table 3: the Fibril depth D, serial stack depth S1,
// the per-worker bound S1+D, and the measured per-worker stack pages
// S_P/P under the Fibril strategy.
func Table3(o Options) *table.Table {
	o = o.withDefaults()
	p := 72
	if !o.Full {
		p = 16
	}
	t := &table.Table{
		Title: fmt.Sprintf("Table 3: stack space usage at P=%d (pages; simulated)", p),
		Header: []string{"benchmark", "D", "S1", "S1+D",
			fmt.Sprintf("S%d/%d", p, p), "within-bound"},
	}
	for _, s := range o.specs() {
		a := o.arg(s)
		m := invoke.Analyze(s.Tree(a))
		s1 := vm.PageAlign(int(m.MaxStackBytes))
		r := sim.Run(o.simConfig(core.StrategyFibril, p), s.Tree(a))
		perWorker := r.MaxStackPagesPerWorker()
		t.Add(s.Name, m.FibrilDepth, s1, s1+m.FibrilDepth,
			fmt.Sprintf("%.2f", perWorker),
			perWorker <= float64(s1+m.FibrilDepth))
	}
	return t
}

// Table4 reproduces Table 4: stack memory high-water (the simulator's RSS
// covers stacks only — the workload data of the real benchmarks is outside
// the simulated address space) and the number of stacks created.
func Table4(o Options) *table.Table {
	o = o.withDefaults()
	p := 72
	if !o.Full {
		p = 16
	}
	t := &table.Table{
		Title: fmt.Sprintf("Table 4: stack RSS and stack counts at P=%d (simulated)", p),
		Header: []string{"benchmark", "rssKB-fibril", "rssKB-nounmap",
			"rssKB-cilkplus", "rssKB-tbb", "stacks-fibril", "stacks-cilkplus"},
	}
	kb := func(pages int64) int64 { return pages * vm.PageSize / 1024 }
	for _, s := range o.specs() {
		a := o.arg(s)
		fib := sim.Run(o.simConfig(core.StrategyFibril, p), s.Tree(a))
		nun := sim.Run(o.simConfig(core.StrategyFibrilNoUnmap, p), s.Tree(a))
		cp := sim.Run(o.simConfig(core.StrategyCilkPlus, p), s.Tree(a))
		tbb := sim.Run(o.simConfig(core.StrategyTBB, p), s.Tree(a))
		t.Add(s.Name,
			kb(fib.VM.MaxRSSPages), kb(nun.VM.MaxRSSPages),
			kb(cp.VM.MaxRSSPages), kb(tbb.VM.MaxRSSPages),
			fib.StacksCreated, cp.StacksCreated)
	}
	return t
}

// AblationMMap reproduces the §4.3 design argument: unmap through the
// serialized mmap path versus lock-free madvise, on the steal-heavy fib
// tree, across the worker grid.
func AblationMMap(o Options) *table.Table {
	o = o.withDefaults()
	s := bench.Get("fib")
	a := o.arg(s)
	t := &table.Table{
		Title:  fmt.Sprintf("Ablation A [fib %v]: madvise vs serialized-mmap unmap (simulated)", a),
		Header: []string{"P", "Tp-madvise", "Tp-mmap", "slowdown", "unmaps"},
	}
	for _, p := range o.pGrid() {
		madv := sim.Run(o.simConfig(core.StrategyFibril, p), s.Tree(a))
		mm := sim.Run(o.simConfig(sim.StrategyFibrilMMap, p), s.Tree(a))
		t.Add(p, madv.Makespan, mm.Makespan,
			fmt.Sprintf("%.3f", float64(mm.Makespan)/float64(madv.Makespan)),
			mm.Unmaps)
	}
	return t
}

// AblationDepthRestricted reproduces the Sukha lower-bound direction on
// the adversarial workload: restricted stealing loses speedup that
// unrestricted (suspending) stealing keeps.
func AblationDepthRestricted(o Options) *table.Table {
	o = o.withDefaults()
	s := bench.Adversarial
	a := o.arg(s)
	m := invoke.Analyze(s.Tree(a))
	t := &table.Table{
		Title:  fmt.Sprintf("Ablation B [adversarial %v]: restricted stealing (simulated speedup)", a),
		Header: []string{"P", "fibril", "tbb", "leapfrog"},
	}
	for _, p := range o.pGrid() {
		row := []any{p}
		for _, strat := range []core.Strategy{
			core.StrategyFibril, core.StrategyTBB, sim.StrategyLeapfrog,
		} {
			r := sim.Run(o.simConfig(strat, p), s.Tree(a))
			row = append(row, fmt.Sprintf("%.2f", float64(m.Work)/float64(r.Makespan)))
		}
		t.Add(row...)
	}
	return t
}

// AblationStackPool reproduces Cilk Plus's bounded-pool stalls: shrinking
// the stack limit makes thieves refrain from stealing.
func AblationStackPool(o Options) *table.Table {
	o = o.withDefaults()
	s := bench.Get("fib")
	a := o.arg(s)
	p := 72
	if !o.Full {
		p = 16
	}
	t := &table.Table{
		Title:  fmt.Sprintf("Ablation C [fib %v]: Cilk Plus stack-pool limits at P=%d (simulated)", a, p),
		Header: []string{"limit", "Tp", "stalls", "stacks"},
	}
	for _, limit := range []int{p + 1, 2 * p, 4 * p, 2400} {
		cfg := o.simConfig(core.StrategyCilkPlus, p)
		cfg.StackLimit = limit
		r := sim.Run(cfg, s.Tree(a))
		t.Add(limit, r.Makespan, r.PoolStalls, r.StacksCreated)
	}
	return t
}

// AblationDiscipline compares the two stealing disciplines the simulator
// implements — help-first child stealing (the Go runtime's substitution)
// and work-first continuation stealing (the paper's actual Fibril) — on
// fib, including how hard the depth restriction (TBB) bites under each.
// Under work-first, deques hold *ancestor continuations*, so a blocked
// depth-restricted joiner finds almost nothing eligible: Sukha's pathology
// appears on ordinary trees.
func AblationDiscipline(o Options) *table.Table {
	o = o.withDefaults()
	s := bench.Get("fib")
	a := o.arg(s)
	m := invoke.Analyze(s.Tree(a))
	t := &table.Table{
		Title: fmt.Sprintf("Ablation D [fib %v]: stealing discipline (simulated speedup)", a),
		Header: []string{"P", "helpfirst-fibril", "workfirst-fibril",
			"helpfirst-tbb", "workfirst-tbb"},
	}
	run := func(strat core.Strategy, p int, wf bool) float64 {
		cfg := o.simConfig(strat, p)
		cfg.WorkFirst = wf
		r := sim.Run(cfg, s.Tree(a))
		return float64(m.Work) / float64(r.Makespan)
	}
	for _, p := range o.pGrid() {
		t.Add(p,
			fmt.Sprintf("%.2f", run(core.StrategyFibril, p, false)),
			fmt.Sprintf("%.2f", run(core.StrategyFibril, p, true)),
			fmt.Sprintf("%.2f", run(core.StrategyTBB, p, false)),
			fmt.Sprintf("%.2f", run(core.StrategyTBB, p, true)))
	}
	return t
}

// Predict compares the Cilkview-style burdened-analysis speedup
// prediction (internal/invoke.AnalyzeBurdened, closed form) against the
// discrete-event simulator, per benchmark across the worker grid. Close
// agreement means the simulator's behaviour follows from the work/span
// structure plus the calibrated burdens — evidence it is not overfit.
func Predict(o Options, s *bench.Spec) *table.Table {
	o = o.withDefaults()
	a := o.arg(s)
	burden := invoke.Burden{
		Fork:  8,
		Task:  8,
		Steal: 128,
	}
	bm := invoke.AnalyzeBurdened(s.Tree(a), burden)
	t := &table.Table{
		Title: fmt.Sprintf("Prediction vs simulation [%s %v]: burdened parallelism %.1f",
			s.Name, a, bm.BurdenedParallelism()),
		Header: []string{"P", "predicted", "simulated", "ratio"},
	}
	for _, p := range o.pGrid() {
		pred := bm.PredictSpeedup(p)
		r := sim.Run(o.simConfig(core.StrategyFibril, p), s.Tree(a))
		simSp := float64(bm.Work) / float64(r.Makespan)
		ratio := 0.0
		if simSp > 0 {
			ratio = pred / simSp
		}
		t.Add(p, fmt.Sprintf("%.2f", pred), fmt.Sprintf("%.2f", simSp),
			fmt.Sprintf("%.2f", ratio))
	}
	return t
}

// CountersSmoke runs every benchmark on the REAL runtime and reports the
// live scheduler counters — the cross-check that the real runtime and the
// simulator tell the same story.
func CountersSmoke(o Options) *table.Table {
	o = o.withDefaults()
	// Eight workers force real concurrency even on a 1-CPU host: goroutine
	// interleaving still produces steals and suspensions.
	const workers = 8
	t := &table.Table{
		Title: "Real-runtime scheduler counters (Fibril strategy)",
		Header: []string{"benchmark", "workers", "forks", "steals",
			"suspends", "unmaps", "stacks", "faults"},
	}
	for _, s := range o.specs() {
		a := s.Default
		rt := o.newRuntime(core.Config{
			Workers: workers, Strategy: core.StrategyFibril, StackPages: 4096,
		})
		rt.Run(func(w *core.W) { s.Parallel(w, a) })
		st := rt.Stats()
		t.Add(s.Name, st.Workers, st.Forks, st.Steals, st.Suspends,
			st.Unmaps, st.StacksCreated, st.VM.PageFaults)
	}
	return t
}
