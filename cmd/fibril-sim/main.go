// Command fibril-sim gives direct access to the discrete-event
// work-stealing simulator: one benchmark tree, one strategy, one worker
// count, full result dump. Useful for exploring configurations the
// prepared experiments (cmd/fibril-bench) do not sweep.
//
// Usage:
//
//	fibril-sim -bench fib -strategy fibril -p 72
//	fibril-sim -bench fib -p 72 -helpfirst     # child-stealing engine
//	fibril-sim -bench quicksort -strategy tbb -p 16 -n 1000000
//	fibril-sim -bench fib -strategy cilkplus -p 72 -stack-limit 80
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/sim"
)

func main() {
	var (
		name       = flag.String("bench", "fib", "benchmark: "+strings.Join(bench.Names(), ", "))
		strategy   = flag.String("strategy", "fibril", strategyNames())
		workers    = flag.Int("p", 8, "simulated worker count")
		n          = flag.Int("n", 0, "override the benchmark's N input (0 = Sim default)")
		m          = flag.Int("m", 0, "override the benchmark's M input")
		stackPages = flag.Int("stack-pages", 0, "stack size in 4KB pages (0 = strategy default)")
		stackLimit = flag.Int("stack-limit", 0, "bounded stack pool (0 = strategy default)")
		seed       = flag.Uint64("seed", 0, "steal-RNG seed (0 = fixed default)")
		helpFirst  = flag.Bool("helpfirst", false,
			"use the help-first child-stealing engine instead of work-first continuation stealing")
	)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fibril-sim: "+format+"\n", args...)
		os.Exit(2)
	}
	s := bench.Get(*name)
	if s == nil {
		usage("unknown benchmark %q", *name)
	}
	strat, ok := parseStrategy(*strategy)
	if !ok {
		usage("unknown strategy %q (have: %s)", *strategy, strategyNames())
	}
	if strat == sim.StrategyCilkM && *helpFirst {
		usage("-strategy cilkm is modelled in the work-first engine only; drop -helpfirst")
	}
	arg := s.Sim
	if *n != 0 {
		arg.N = *n
	}
	if *m != 0 {
		arg.M = *m
	}

	met := invoke.Analyze(s.Tree(arg))
	fmt.Printf("benchmark  %s %v — %s\n", s.Name, arg, s.Description)
	fmt.Printf("tree       T1=%d T∞=%d parallelism=%.1f tasks=%d forks=%d S1=%dB D=%d\n",
		met.Work, met.Span, met.Parallelism(), met.Tasks, met.Forks,
		met.MaxStackBytes, met.FibrilDepth)

	cfg := sim.Config{
		Workers: *workers, Strategy: strat, WorkFirst: !*helpFirst,
		StackPages: *stackPages, StackLimit: *stackLimit, Seed: *seed,
	}
	r := sim.Run(cfg, s.Tree(arg))
	fmt.Printf("result     %v\n", r)
	fmt.Printf("speedup    %.2f (vs pure work T1)\n", float64(met.Work)/float64(r.Makespan))
	fmt.Printf("stealing   attempts=%d successes=%d suspends=%d resumes=%d\n",
		r.StealAttempts, r.Steals, r.Suspends, r.Resumes)
	fmt.Printf("memory     maxRSS=%d pages (%d KB), S%d/%d=%.2f pages/worker, faults=%d\n",
		r.VM.MaxRSSPages, r.VM.MaxRSSPages*4, *workers, *workers,
		r.MaxStackPagesPerWorker(), r.VM.PageFaults)
	fmt.Printf("stacks     created=%d maxInUse=%d poolStalls=%d unmaps=%d unmappedPages=%d\n",
		r.StacksCreated, r.MaxStacksUsed, r.PoolStalls, r.Unmaps, r.UnmappedPages)
}

func parseStrategy(s string) (core.Strategy, bool) {
	for _, st := range sim.Strategies() {
		if sim.StrategyName(st) == s {
			return st, true
		}
	}
	return 0, false
}

// strategyNames lists every strategy the simulator accepts, for the flag's
// help text and error messages.
func strategyNames() string {
	var names []string
	for _, st := range sim.Strategies() {
		names = append(names, sim.StrategyName(st))
	}
	return strings.Join(names, " | ")
}
