// Command fibril-bench regenerates the tables and figures of the Fibril
// paper's evaluation (SPAA 2016, §5).
//
// Usage:
//
//	fibril-bench -experiment all            # quick pass over everything
//	fibril-bench -experiment fig4 -full     # Figure 4 at the paper's P grid
//	fibril-bench -experiment table2 -bench fib,quicksort
//	fibril-bench -experiment fig3 -reps 10  # the paper's ten repetitions
//
// Experiments: fig3, fig4, table2, table3, table4, mmap-vs-madvise,
// depth-restricted, stack-pool, discipline, predict, counters, all. See
// EXPERIMENTS.md for the mapping to the paper and the expected shapes. What
// this runtime costs, end to end and layer by layer, is measured by
// benchmark/ (bash benchmark/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"

	"fibril"
	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/exper"
	"fibril/internal/table"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"fig3 | fig4 | table2 | table3 | table4 | mmap-vs-madvise | depth-restricted | stack-pool | discipline | predict | counters | all")
		full = flag.Bool("full", false,
			"use simulation-scale inputs and the paper's worker grid (slow)")
		reps      = flag.Int("reps", 3, "timing repetitions for real-runtime measurements")
		list      = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		helpFirst = flag.Bool("helpfirst", false,
			"simulate with the help-first child-stealing engine instead of the paper's work-first discipline")
		serve = flag.String("serve", "",
			"serve live runtime metrics on this address (e.g. :8080) while experiments run; JSON at /debug/vars under the \"fibril\" key")
	)
	flag.Parse()

	// check ends the run on an error that is not the caller's usage.
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench:", err)
			os.Exit(1)
		}
	}

	opts := exper.Options{Full: *full, Reps: *reps, HelpFirst: *helpFirst}
	if *serve != "" {
		check(serveMetrics(*serve, &opts))
	}
	if *list != "" {
		opts.Benches = strings.Split(*list, ",")
		for _, n := range opts.Benches {
			if bench.Get(n) == nil {
				fmt.Fprintf(os.Stderr, "fibril-bench: unknown benchmark %q (have: %s)\n",
					n, strings.Join(bench.Names(), ", "))
				os.Exit(2)
			}
		}
	}

	emit := func(t *table.Table) {
		if *csv {
			check(t.CSV(os.Stdout))
			return
		}
		check(t.Fprint(os.Stdout))
		fmt.Println()
	}
	// perBench emits one table per selected benchmark; the adversarial
	// tree belongs to Ablation B alone.
	perBench := func(one func(exper.Options, *bench.Spec) *table.Table) {
		for _, s := range bench.All() {
			if s.Name == "adversarial" {
				continue
			}
			if len(opts.Benches) > 0 && !slices.Contains(opts.Benches, s.Name) {
				continue
			}
			emit(one(opts, s))
		}
	}

	// The experiments, in the order "all" runs them; predict is on request
	// only.
	experiments := []struct {
		name string
		run  func()
	}{
		{"fig3", func() { emit(exper.Fig3(opts)) }},
		{"fig4", func() { perBench(exper.Fig4) }},
		{"table2", func() { emit(exper.Table2(opts)) }},
		{"table3", func() { emit(exper.Table3(opts)) }},
		{"table4", func() { emit(exper.Table4(opts)) }},
		{"mmap-vs-madvise", func() { emit(exper.AblationMMap(opts)) }},
		{"depth-restricted", func() { emit(exper.AblationDepthRestricted(opts)) }},
		{"stack-pool", func() { emit(exper.AblationStackPool(opts)) }},
		{"discipline", func() { emit(exper.AblationDiscipline(opts)) }},
		{"predict", func() { perBench(exper.Predict) }},
		{"counters", func() { emit(exper.CountersSmoke(opts)) }},
	}
	known := false
	for _, e := range experiments {
		if *experiment == e.name || *experiment == "all" && e.name != "predict" {
			e.run()
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "fibril-bench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// serveMetrics starts the expvar endpoint and hooks opts.Observe so the
// "fibril" var always snapshots the runtime the experiments are currently
// driving. Runtime.Snapshot is safe mid-Run, so the endpoint serves live
// counters, gauges, and histograms while a measurement is executing.
func serveMetrics(addr string, opts *exper.Options) error {
	var current atomic.Pointer[core.Runtime]
	opts.Observe = func(rt *core.Runtime) { current.Store(rt) }
	fibril.PublishExpvar("fibril", func() fibril.Metrics {
		if rt := current.Load(); rt != nil {
			return rt.Snapshot()
		}
		return fibril.Metrics{}
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fibril-bench: serving metrics on http://%s/debug/vars\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench: metrics server:", err)
		}
	}()
	return nil
}
