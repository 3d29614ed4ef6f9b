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
// depth-restricted, stack-pool, discipline, predict, forkpath, memory,
// counters, all. See EXPERIMENTS.md for the mapping to the paper and the
// expected shapes.
//
// The forkpath and memory experiments take -json <path>, writing their
// rows as a JSON array (results/BENCH_forkpath.json and
// results/BENCH_memory.json); with any other experiment -json is a usage
// error. A committed BENCH_memory.json can be re-validated without
// re-running via -validate-memory <path>, which fails if the file is
// malformed, empty, or any row left its space envelope.
package main

import (
	"encoding/json"
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
			"fig3 | fig4 | table2 | table3 | table4 | mmap-vs-madvise | depth-restricted | stack-pool | discipline | predict | forkpath | memory | counters | all")
		full = flag.Bool("full", false,
			"use simulation-scale inputs and the paper's worker grid (slow)")
		reps      = flag.Int("reps", 3, "timing repetitions for real-runtime measurements")
		list      = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonPath  = flag.String("json", "", "write the rows of a forkpath or memory run as JSON to this path")
		helpFirst = flag.Bool("helpfirst", false,
			"simulate with the help-first child-stealing engine instead of the paper's work-first discipline")
		validateMemory = flag.String("validate-memory", "",
			"validate an existing BENCH_memory.json at this path and exit (CI smoke)")
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
	if *validateMemory != "" {
		check(checkMemoryJSON(*validateMemory))
		fmt.Printf("fibril-bench: %s ok\n", *validateMemory)
		return
	}
	if *jsonPath != "" && *experiment != "forkpath" && *experiment != "memory" {
		fmt.Fprintf(os.Stderr, "fibril-bench: -json goes with -experiment forkpath or memory, not %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	opts := exper.Options{Full: *full, Reps: *reps, HelpFirst: *helpFirst}
	if *serve != "" {
		check(serveMetrics(*serve, &opts))
	}
	if *list != "" {
		opts.Benches = strings.Split(*list, ",")
		for _, n := range opts.Benches {
			// "for-loop" is the forkpath experiment's loop-engine
			// pseudo-benchmark, not a registry entry.
			if bench.Get(n) == nil && n != "for-loop" {
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
	// emitRows prints a measured experiment's table and, under -json,
	// writes its rows.
	emitRows := func(rows any, t *table.Table) {
		emit(t)
		if *jsonPath != "" {
			check(writeJSON(*jsonPath, rows))
		}
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

	switch *experiment {
	case "fig3":
		emit(exper.Fig3(opts))
	case "fig4":
		perBench(exper.Fig4)
	case "table2":
		emit(exper.Table2(opts))
	case "table3":
		emit(exper.Table3(opts))
	case "table4":
		emit(exper.Table4(opts))
	case "mmap-vs-madvise":
		emit(exper.AblationMMap(opts))
	case "depth-restricted":
		emit(exper.AblationDepthRestricted(opts))
	case "stack-pool":
		emit(exper.AblationStackPool(opts))
	case "discipline":
		emit(exper.AblationDiscipline(opts))
	case "predict":
		perBench(exper.Predict)
	case "forkpath":
		emitRows(exper.ForkPath(opts))
	case "memory":
		emitRows(exper.Memory(opts))
	case "counters":
		emit(exper.CountersSmoke(opts))
	case "all":
		emit(exper.Fig3(opts))
		perBench(exper.Fig4)
		emit(exper.Table2(opts))
		emit(exper.Table3(opts))
		emit(exper.Table4(opts))
		emit(exper.AblationMMap(opts))
		emit(exper.AblationDepthRestricted(opts))
		emit(exper.AblationStackPool(opts))
		emit(exper.AblationDiscipline(opts))
		emitRows(exper.ForkPath(opts))
		emitRows(exper.Memory(opts))
		emit(exper.CountersSmoke(opts))
	default:
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

// checkMemoryJSON validates a BENCH_memory.json: it must parse as a
// non-empty []exper.MemoryRow and every row must have stayed within its
// (D+1)(S1p+1) space envelope.
func checkMemoryJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rows []exper.MemoryRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("%s: malformed: %w", path, err)
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	for i, r := range rows {
		if r.Benchmark == "" || r.Mode == "" || r.Workers <= 0 {
			return fmt.Errorf("%s: row %d incomplete: %+v", path, i, r)
		}
		if !r.WithinEnvelope {
			return fmt.Errorf("%s: row %d (%s/%s) left its space envelope: maxRSS=%d > %d pages",
				path, i, r.Benchmark, r.Mode, r.MaxRSSPages, r.EnvelopePages)
		}
	}
	return nil
}

// writeJSON writes v as indented JSON to path, creating it if needed.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
