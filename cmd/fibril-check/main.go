// Command fibril-check soak-tests the scheduler with the conformance
// harness (internal/check): it generates seeded random fork-join programs,
// runs each across the full executor matrix — real runtime × worker
// counts, plus both simulator engines — and checks every invariant oracle.
// On a violation it halves the program's node budget while the violation
// persists and prints a replay command that carries the whole
// configuration of the failing run, then exits 1.
//
// Usage:
//
//	fibril-check                    # 200 seeds, default matrix
//	fibril-check -n 5000            # longer soak
//	fibril-check -duration 2m       # time-bounded soak
//	fibril-check -seed 0x2a         # replay one seed
//	fibril-check -panics            # panicking leaves, abandoned children (real runtime only)
//	fibril-check -ceiling 64        # soft RSS ceiling on the real-runtime legs
//	go test -race ... is unnecessary; build the soak itself with -race:
//	go run -race ./cmd/fibril-check -n 500
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fibril/internal/check"
	"fibril/internal/core"
)

// config is the parsed command line. The first six fields choose the
// generated program and the executor matrix — what a replay must carry;
// the rest choose which seeds are run.
type config struct {
	workers  string
	strategy string
	panics   bool
	nosim    bool
	ceiling  int64
	nodes    int

	seed     uint64
	one      bool
	n        int
	duration time.Duration
	quiet    bool
}

func parseFlags(args []string, errOut io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("fibril-check", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Uint64Var(&c.seed, "seed", 0, "replay exactly this seed and exit (0 with -n: soak from seed 0)")
	fs.BoolVar(&c.one, "one", false, "treat -seed as a single replay even when it is 0")
	fs.IntVar(&c.n, "n", 200, "number of seeds to soak (ignored with -one or -duration)")
	fs.DurationVar(&c.duration, "duration", 0, "soak for this long instead of a fixed seed count")
	fs.StringVar(&c.workers, "workers", "1,2,4", "comma-separated real-runtime worker counts")
	fs.StringVar(&c.strategy, "strategy", "fibril", "strategy: "+strategyNames())
	fs.BoolVar(&c.panics, "panics", false, "inject panics: 25% of leaves panic and 8% of interior nodes abandon their forked children (disables the simulator legs)")
	fs.IntVar(&c.nodes, "nodes", 0, "override Params.MaxNodes (0 = default)")
	fs.BoolVar(&c.nosim, "nosim", false, "skip the simulator legs")
	fs.Int64Var(&c.ceiling, "ceiling", 0, "Config.MaxResidentPages for the real-runtime legs (0 = off)")
	fs.BoolVar(&c.quiet, "q", false, "suppress the progress line")
	err := fs.Parse(args)
	return c, err
}

// params are the generator parameters the command line selects.
func (c config) params() check.Params {
	p := check.Params{MaxNodes: c.nodes}
	if c.panics {
		p.PanicPct = 25
	}
	return p
}

// options is the executor matrix the command line selects.
func (c config) options() (check.Options, error) {
	opts := check.Options{
		Mem:   []check.MemParams{{MaxResidentPages: c.ceiling}},
		NoSim: c.nosim || c.panics,
	}
	for _, w := range strings.Split(c.workers, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &n); err != nil || n < 1 {
			return opts, fmt.Errorf("bad -workers entry %q", w)
		}
		opts.Workers = append(opts.Workers, n)
	}
	for _, s := range core.Strategies() {
		if s.String() == strings.TrimSpace(c.strategy) {
			opts.Strategies = []core.Strategy{s}
			return opts, nil
		}
	}
	return opts, fmt.Errorf("bad -strategy %q (have: %s)", c.strategy, strategyNames())
}

// strategyNames lists the strategies the real runtime has, by the names
// -strategy takes.
func strategyNames() string {
	var names []string
	for _, s := range core.Strategies() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

// replayLine is the command that re-runs seed with nodes as the node budget
// under c's program and matrix flags: parsing it yields the params and
// options of the run it was printed for. The generator is deterministic in
// (seed, params), so that is the same program on the same executors.
func (c config) replayLine(seed uint64, nodes int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "go run ./cmd/fibril-check -one -seed %#x -nodes %d -workers %s -strategy %s",
		seed, nodes, strings.ReplaceAll(c.workers, " ", ""), strings.TrimSpace(c.strategy))
	if c.panics {
		b.WriteString(" -panics")
	}
	if c.nosim {
		b.WriteString(" -nosim")
	}
	if c.ceiling != 0 {
		fmt.Fprintf(&b, " -ceiling %d", c.ceiling)
	}
	return b.String()
}

func main() {
	c, err := parseFlags(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	opts, err := c.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fibril-check:", err)
		os.Exit(2)
	}
	params := c.params()

	if c.one || c.seed != 0 {
		if err := runSeed(c.seed, params, opts); err != nil {
			report(c, c.seed, params, opts, err)
			os.Exit(1)
		}
		fmt.Printf("seed %#x: conformant (%v)\n", c.seed, check.Generate(c.seed, params))
		return
	}

	start := time.Now()
	checked := 0
	for seed := uint64(0); ; seed++ {
		if c.duration > 0 {
			if time.Since(start) > c.duration {
				break
			}
		} else if checked >= c.n {
			break
		}
		if err := runSeed(seed, params, opts); err != nil {
			report(c, seed, params, opts, err)
			os.Exit(1)
		}
		checked++
		if !c.quiet && checked%50 == 0 {
			fmt.Printf("... %d seeds conformant (%.1fs)\n", checked, time.Since(start).Seconds())
		}
	}
	secs := time.Since(start).Seconds()
	fmt.Printf("fibril-check: %d seeds conformant in %.1fs — %d legs per seed, %.0f seeds/s (matrix: workers=%s strategy=%s)\n",
		checked, secs, opts.Legs(), float64(checked)/secs, c.workers, c.strategy)
}

func runSeed(seed uint64, params check.Params, opts check.Options) error {
	return check.Differential(check.Generate(seed, params), opts)
}

// report prints the violation, shrinks it, and prints the command that
// replays the shrunk program on the executors that failed.
func report(c config, seed uint64, params check.Params, opts check.Options, err error) {
	fmt.Fprintf(os.Stderr, "fibril-check: VIOLATION at seed %#x\n%v\n\n%v\n",
		seed, check.Generate(seed, params), err)
	small, serr := shrink(seed, params, opts)
	if serr != nil {
		fmt.Fprintf(os.Stderr, "\nshrunk to %v\n  params: %v\n  first violation:\n%v\n",
			check.Generate(seed, small), small, firstLine(serr))
	}
	fmt.Fprintf(os.Stderr, "\nreplay: %s\n", c.replayLine(seed, small.MaxNodes))
}

// shrink halves the node budget — the one generator parameter the replay
// line can carry — while the violation persists, and returns the smallest
// failing parameters with their error. A violation that does not reproduce
// on the first re-run comes back as the parameters given and a nil error.
func shrink(seed uint64, params check.Params, opts check.Options) (check.Params, error) {
	best := params.WithDefaults()
	bestErr := runSeed(seed, best, opts)
	for cand := best; bestErr != nil && cand.MaxNodes > 1; {
		cand.MaxNodes /= 2
		cerr := runSeed(seed, cand, opts)
		if cerr == nil {
			break
		}
		best, bestErr = cand, cerr
	}
	return best, bestErr
}

func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
