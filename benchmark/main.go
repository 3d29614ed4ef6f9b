// Command benchmark is the repository's one benchmark: four workloads that
// between them cover a job's whole life, each run in a child process of
// this binary, with every output checked.
//
//	go run . -seed 1            all four workloads, tracing off: the end-to-end metrics
//	go run . -seed 1 -trace     the same, then the traced run: the per-layer metrics
//	go run . -seed 1 -repeat 2  two sets back to back (seeds 1 and 2), compared against each metric's bound
//
// The driver's form is -workload NAME -seed N -seconds S -trace 0|1; it
// ends with one JSON object on the last line of standard output. See
// README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// spanDir is where the traced run leaves its span dump, relative to the
// benchmark directory the program runs in.
const spanDir = "results/spans"

// childTimeout bounds one child process; the driver allows a run 180 s.
const childTimeout = 150 * time.Second

func main() {
	// -trace is a switch for people and takes 0|1 from the driver.
	args := os.Args[1:]
	for i, a := range args {
		bare := a == "-trace" || a == "--trace"
		if bare && (i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1")) {
			args = slices.Replace(slices.Clone(args), i, i+1, "-trace=1")
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs: request order, leaf lengths, arrival gaps")
	seconds := fs.Float64("seconds", 20, "how long each workload measures for")
	traceOn := fs.Int("trace", 0, "1 adds (with -workload: runs instead) the traced run and its per-layer metrics")
	repeat := fs.Int("repeat", 1, "run this many full sets (seed, seed+1, ...) and compare them against each metric's bound")
	out := fs.String("json", "", "also write the sets as JSON to this file")
	child := fs.String("child", "", "internal: run one workload in this process and print its result as JSON")
	fs.Parse(args)

	e := env{sz: fullSizes, seed: *seed, seconds: *seconds, badOp: -1, spanDir: spanDir}
	if *child != "" {
		runChild(*child, e)
		return
	}

	fmt.Printf("fibril benchmark: seed=%d seconds=%g workers=%d %s\n", *seed, *seconds, workers(), hostStamp())
	ok := true
	if *workload != "all" {
		if !slices.Contains(workloadNames(), *workload) {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have %v\n", *workload, workloadNames())
			os.Exit(2)
		}
		var res result
		if *traceOn == 1 {
			res = tracedRun(e)
			printLayers(os.Stdout, res)
		} else {
			res = spawn(*workload, e)
			printWorkload(os.Stdout, res)
		}
		ok = res.correct(*traceOn == 1)
		fmt.Println(driverLine(res, *traceOn == 1))
	} else {
		var sets [][]result
		for i := range *repeat {
			// Each set takes another seed, as the driver's ten runs do.
			se := e
			se.seed += uint64(i)
			if *repeat > 1 {
				fmt.Printf("\nset %d of %d, seed %d\n", i+1, *repeat, se.seed)
			}
			set := runSet(se, *traceOn == 1)
			sets = append(sets, set)
			for k, res := range set {
				ok = ok && res.correct(k == len(workloads)) // the traced run follows the workloads
			}
		}
		if *repeat > 1 {
			ok = printRepeat(os.Stdout, sets) && ok
		}
		if *out != "" {
			if err := writeSets(*out, e, sets); err != nil {
				fmt.Fprintln(os.Stderr, err)
				ok = false
			}
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "FAILED: an operation failed, a check did not hold, or two sets disagreed beyond a bound")
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runChild is the child side: run one workload here and print its result.
// A runtime panic on a worker goroutine kills only this process.
func runChild(name string, e env) {
	var res result
	switch name {
	case "layers":
		res = runLayers(e)
	case "pooled":
		res = runPooled(e)
	default:
		i := slices.Index(workloadNames(), name)
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown child %q\n", name)
			os.Exit(2)
		}
		res = workloads[i].run(e)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// spawn runs one workload in a child process of this binary and returns
// its result. A child that dies, hangs or prints no result fails the
// workload's operations and is reported with the tail of its stderr.
func spawn(name string, e env) result {
	res := newResult(name)
	exe, err := os.Executable()
	if err != nil {
		res.Attempted = 1
		res.fail(1, "os.Executable: %v", err)
		return res
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", name,
		"-seed", fmt.Sprint(e.seed), "-seconds", fmt.Sprint(e.seconds))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run() // waits for the child to have ended
	if runErr == nil {
		runErr = json.Unmarshal(stdout.Bytes(), &res)
	}
	if runErr != nil {
		res = newResult(name)
		res.Attempted = 1
		res.fail(1, "child process: %v; stderr tail:\n%s", runErr, tail(stderr.String(), 30))
	}
	return res
}

// tracedRun is the separate traced run: the layers child, and the pooled
// lane in a child of its own (retried, because that lane can crash).
func tracedRun(e env) result {
	res := spawn("layers", e)
	var pooled result
	for range 3 {
		if pooled = spawn("pooled", e); pooled.ok() {
			break
		}
		res.Errors = append(res.Errors, pooled.Errors...)
	}
	res.Attempted += pooled.Attempted
	res.Failed += pooled.Failed
	for k, v := range pooled.Layer {
		res.Layer[k] = v
	}
	return res
}

// runSet runs every workload once, untraced, then the traced run if asked.
func runSet(e env, traced bool) []result {
	var set []result
	for _, w := range workloads {
		res := spawn(w.Name, e)
		printWorkload(os.Stdout, res)
		set = append(set, res)
	}
	if traced {
		res := tracedRun(e)
		printLayers(os.Stdout, res)
		set = append(set, res)
	}
	return set
}

func tail(s string, lines int) string {
	all := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return strings.Join(all[max(len(all)-lines, 0):], "\n")
}

// hostStamp says what the numbers were measured on. run.sh passes the
// commit in BENCH_COMMIT.
func hostStamp() string {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("commit=%s nproc=%d GOMAXPROCS=%d %s", commit, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// ok is whether the result has operations and none of them failed.
func (r result) ok() bool { return r.Failed == 0 && r.Attempted >= 1 }

// correct is ok plus every metric a run of its kind must carry: the
// per-layer names for the traced run, the end-to-end names otherwise.
func (r result) correct(traced bool) bool {
	if !r.ok() {
		return false
	}
	if traced {
		for _, l := range perLayer {
			if _, has := r.Layer[l.Name]; !has {
				return false
			}
		}
		return true
	}
	for _, m := range endToEnd {
		if _, has := r.E2E[m.Name]; !has {
			return false
		}
	}
	return true
}

// driverLine is the one JSON object the driver reads from the last line.
func driverLine(r result, traced bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(traced), max(r.Attempted, 1), r.Failed, map[string]metric{}}
	// Exactly the names BENCHMARK.json lists for this kind of run.
	if traced {
		for _, l := range perLayer {
			if v, ok := r.Layer[l.Name]; ok {
				line.Metrics[l.Name] = metric{v.Value, v.Unit}
			}
		}
	} else {
		for _, m := range endToEnd {
			if v, ok := r.E2E[m.Name]; ok {
				line.Metrics[m.Name] = metric{v.Value, v.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func printWorkload(w io.Writer, r result) {
	spec := workloads[slices.Index(workloadNames(), r.Workload)]
	fmt.Fprintf(w, "\nworkload %s: %s\n", spec.Name, spec.Why)
	fmt.Fprintf(w, "  operation = %s; ops_per_s counts %s; attempted=%d failed=%d\n", spec.Op, spec.Work, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		v, ok := r.E2E[m.Name]
		if !ok {
			fmt.Fprintf(w, "  e2e   %-18s %-11s MISSING\n", spec.Name, m.Name)
			continue
		}
		fmt.Fprintf(w, "  e2e   %-18s %-11s %14.6g %-6s n=%-8d %s is better, bound %g%%\n",
			spec.Name, m.Name, v.Value, v.Unit, v.N, m.Better, m.Bound*100)
	}
	for _, k := range sortedKeys(r.Info) {
		v := r.Info[k]
		fmt.Fprintf(w, "  info  %-18s %-11s %14.6g %-6s n=%-8d reported, not gated\n", spec.Name, k, v.Value, v.Unit, v.N)
	}
	printErrors(w, r)
}

func printLayers(w io.Writer, r result) {
	fmt.Fprintf(w, "\ntraced run: per-layer metrics; attempted=%d failed=%d; spans in %s/\n", r.Attempted, r.Failed, spanDir)
	for _, l := range perLayer {
		v, ok := r.Layer[l.Name]
		if !ok {
			fmt.Fprintf(w, "  layer %-38s MISSING\n", l.Name)
			continue
		}
		note := ""
		if v.Note != "" {
			note = " (" + v.Note + ")"
		}
		fmt.Fprintf(w, "  layer %-38s %14.6g %-6s n=%-9d%s\n", l.Name, v.Value, v.Unit, v.N, note)
	}
	printErrors(w, r)
}

func printErrors(w io.Writer, r result) {
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAIL  %s\n", e)
	}
}

func sortedKeys(m map[string]value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// printRepeat compares the sets metric by metric: each set's value, their
// spread as a share of the median, and PASS when that is within the
// metric's bound. It reports whether every metric passed.
func printRepeat(w io.Writer, sets [][]result) bool {
	fmt.Fprintf(w, "\nrepeat: %d sets of the same commit; spread = (max-min)/median up to 3 sets, (q3-q1)/median from 4\n", len(sets))
	pass := true
	for wi, spec := range workloads {
		for _, m := range endToEnd {
			vals := make([]float64, len(sets))
			var cells []string
			for si, set := range sets {
				vals[si] = set[wi].E2E[m.Name].Value
				cells = append(cells, fmt.Sprintf("%.6g", vals[si]))
			}
			spread := relSpread(vals)
			verdict := "PASS"
			if !(spread <= m.Bound) {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(w, "  repeat %-18s %-11s %-40s spread %6.2f%%  bound %g%%  %s\n",
				spec.Name, m.Name, strings.Join(cells, " "), spread*100, m.Bound*100, verdict)
		}
	}
	return pass
}

// writeSets records the sets with the host they were measured on.
func writeSets(path string, e env, sets [][]result) error {
	doc := struct {
		Host    string     `json:"host"`
		Seed    uint64     `json:"seed"`
		Seconds float64    `json:"seconds"`
		Workers int        `json:"workers"`
		Sets    [][]result `json:"sets"`
	}{hostStamp(), e.seed, e.seconds, workers(), sets}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
