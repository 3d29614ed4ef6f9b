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
// depth-restricted, stack-pool, forkpath, memory, serve, counters, all.
// See EXPERIMENTS.md for the mapping to the paper and the expected shapes.
//
// The forkpath, memory and serve experiments support -json <path>, writing
// their rows as a JSON array (results/BENCH_forkpath.json,
// results/BENCH_memory.json and results/BENCH_serve.json). A committed
// BENCH_memory.json can be re-validated without re-running via
// -validate-memory <path>, which fails if the file is malformed, empty, or
// any row left its space envelope. -validate-serve <path> checks
// BENCH_serve.json: at least two offered rates with one saturating, request
// conservation per row, a light-load p99 bound, overload-shed keeping p50
// near the light leg's, and every drain leaving no queued tasks or pending
// reclaims.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
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
			"fig3 | fig4 | table2 | table3 | table4 | mmap-vs-madvise | depth-restricted | stack-pool | discipline | predict | forkpath | memory | serve | counters | all")
		full = flag.Bool("full", false,
			"use simulation-scale inputs and the paper's worker grid (slow)")
		reps      = flag.Int("reps", 3, "timing repetitions for real-runtime measurements")
		list      = flag.String("bench", "", "comma-separated benchmark subset (default: all)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonPath  = flag.String("json", "", "write the rows of a forkpath, memory or serve run as JSON to this path")
		helpFirst = flag.Bool("helpfirst", false,
			"simulate with the help-first child-stealing engine instead of the paper's work-first discipline")
		validateMemory = flag.String("validate-memory", "",
			"validate an existing BENCH_memory.json at this path and exit (CI smoke)")
		validateServe = flag.String("validate-serve", "",
			"validate an existing BENCH_serve.json at this path and exit (CI smoke)")
		serve = flag.String("serve", "",
			"serve live runtime metrics on this address (e.g. :8080) while experiments run; JSON at /debug/vars under the \"fibril\" key")
	)
	flag.Parse()

	if *validateMemory != "" {
		if err := checkMemoryJSON(*validateMemory); err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("fibril-bench: %s ok\n", *validateMemory)
		return
	}
	if *validateServe != "" {
		if err := checkServeJSON(*validateServe); err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("fibril-bench: %s ok\n", *validateServe)
		return
	}

	opts := exper.Options{Full: *full, Reps: *reps, HelpFirst: *helpFirst}
	if *serve != "" {
		if err := serveMetrics(*serve, &opts); err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench:", err)
			os.Exit(1)
		}
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
		var err error
		if *csv {
			err = t.CSV(os.Stdout)
		} else {
			err = t.Fprint(os.Stdout)
			fmt.Println()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fibril-bench:", err)
			os.Exit(1)
		}
	}

	runFig4 := func() {
		specs := bench.All()
		for _, s := range specs {
			if s.Name == "adversarial" {
				continue
			}
			if len(opts.Benches) > 0 && !contains(opts.Benches, s.Name) {
				continue
			}
			emit(exper.Fig4(opts, s))
		}
	}

	switch *experiment {
	case "fig3":
		emit(exper.Fig3(opts))
	case "fig4":
		runFig4()
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
		for _, s := range bench.All() {
			if s.Name == "adversarial" {
				continue
			}
			if len(opts.Benches) > 0 && !contains(opts.Benches, s.Name) {
				continue
			}
			emit(exper.Predict(opts, s))
		}
	case "forkpath":
		rows, t := exper.ForkPath(opts)
		emit(t)
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rows); err != nil {
				fmt.Fprintln(os.Stderr, "fibril-bench:", err)
				os.Exit(1)
			}
		}
	case "memory":
		rows, t := exper.Memory(opts)
		emit(t)
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rows); err != nil {
				fmt.Fprintln(os.Stderr, "fibril-bench:", err)
				os.Exit(1)
			}
		}
	case "serve":
		rows, t := exper.Serve(opts)
		emit(t)
		if *jsonPath != "" {
			if err := writeJSON(*jsonPath, rows); err != nil {
				fmt.Fprintln(os.Stderr, "fibril-bench:", err)
				os.Exit(1)
			}
		}
	case "counters":
		emit(exper.CountersSmoke(opts))
	case "all":
		emit(exper.Fig3(opts))
		runFig4()
		emit(exper.Table2(opts))
		emit(exper.Table3(opts))
		emit(exper.Table4(opts))
		emit(exper.AblationMMap(opts))
		emit(exper.AblationDepthRestricted(opts))
		emit(exper.AblationStackPool(opts))
		emit(exper.AblationDiscipline(opts))
		// "all" prints tables only; -json goes with a single experiment.
		_, ft := exper.ForkPath(opts)
		emit(ft)
		_, mt := exper.Memory(opts)
		emit(mt)
		_, st := exper.Serve(opts)
		emit(st)
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

// checkServeJSON validates a BENCH_serve.json: it must parse as a
// non-empty []exper.ServeRow spanning at least two offered rates, one of
// them saturating (rate above the calibrated capacity). Per row, the
// request-conservation law Completed+Shed+Drained == Requests must hold,
// latency quantiles must be monotone, and the post-Close drain must have
// left no queued tasks and no pending reclaims. The latency gates encode
// the serving story: under light load p99 stays under a generous absolute
// bound, and under saturating overload the shed posture keeps p50 within
// a small multiple of the light leg's p50 (with an absolute floor, since
// both are power-of-two bucket bounds) while actually shedding — flat
// latency for admitted work is what AdmitShed buys.
func checkServeJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rows []exper.ServeRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return fmt.Errorf("%s: malformed: %w", path, err)
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: no rows", path)
	}
	rates := map[float64]bool{}
	saturating := 0
	var light, shed *exper.ServeRow
	for i := range rows {
		r := &rows[i]
		if r.Mode == "" || r.Policy == "" || r.Workers <= 0 || r.RatePerSec <= 0 || r.Requests <= 0 {
			return fmt.Errorf("%s: row %d incomplete: %+v", path, i, *r)
		}
		rates[r.RatePerSec] = true
		if r.Saturating {
			if r.RatePerSec <= r.CapacityPerSec {
				return fmt.Errorf("%s: row %d (%s) marked saturating at rate %.0f <= capacity %.0f",
					path, i, r.Mode, r.RatePerSec, r.CapacityPerSec)
			}
			saturating++
		}
		if got := r.Completed + r.Shed + r.Drained; got != int64(r.Requests) {
			return fmt.Errorf("%s: row %d (%s): completed=%d + shed=%d + drained=%d != requests=%d",
				path, i, r.Mode, r.Completed, r.Shed, r.Drained, r.Requests)
		}
		if r.P50us <= 0 || r.P99us < r.P50us || r.P999us < r.P99us {
			return fmt.Errorf("%s: row %d (%s): quantiles not monotone: p50=%dµs p99=%dµs p999=%dµs",
				path, i, r.Mode, r.P50us, r.P99us, r.P999us)
		}
		if r.DrainQueued != 0 || r.DrainPending != 0 {
			return fmt.Errorf("%s: row %d (%s): drain left queued=%d pending=%d",
				path, i, r.Mode, r.DrainQueued, r.DrainPending)
		}
		switch r.Mode {
		case "light":
			light = r
		case "overload-shed":
			shed = r
		}
	}
	if len(rates) < 2 {
		return fmt.Errorf("%s: only %d distinct offered rates, want >= 2", path, len(rates))
	}
	if saturating == 0 {
		return fmt.Errorf("%s: no saturating row (rate > capacity)", path)
	}
	if light == nil {
		return fmt.Errorf("%s: no light row", path)
	}
	if light.P99us > 250_000 {
		return fmt.Errorf("%s: light-load p99=%dµs exceeds 250ms", path, light.P99us)
	}
	if shed != nil {
		if shed.Shed == 0 {
			return fmt.Errorf("%s: overload-shed row shed nothing", path)
		}
		bound := 8 * light.P50us
		if bound < 2000 {
			bound = 2000
		}
		if shed.P50us > bound {
			return fmt.Errorf("%s: overload-shed p50=%dµs not flat vs light p50=%dµs (bound %dµs)",
				path, shed.P50us, light.P50us, bound)
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

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
