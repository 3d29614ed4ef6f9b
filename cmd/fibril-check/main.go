// Command fibril-check soak-tests the scheduler with the conformance
// harness (internal/check): it generates seeded random fork-join programs,
// runs each across the full executor matrix — real runtime × worker
// counts, plus both simulator engines — and checks every invariant oracle. On a violation it shrinks the generator
// parameters to a minimal failing configuration and prints the replay
// command, then exits 1.
//
// Usage:
//
//	fibril-check                    # 200 seeds, default matrix
//	fibril-check -n 5000            # longer soak
//	fibril-check -duration 2m       # time-bounded soak
//	fibril-check -seed 0x2a         # replay one seed
//	fibril-check -panics            # panicking leaves, abandoned children (real runtime only)
//	fibril-check -batch 8 -ceiling 512  # coalesced unmap + RSS ceiling
//	go test -race ... is unnecessary; build the soak itself with -race:
//	go run -race ./cmd/fibril-check -n 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fibril/internal/check"
	"fibril/internal/core"
)

func main() {
	var (
		seedFlag = flag.Uint64("seed", 0, "replay exactly this seed and exit (0 with -n: soak from seed 0)")
		oneSeed  = flag.Bool("one", false, "treat -seed as a single replay even when it is 0")
		n        = flag.Int("n", 200, "number of seeds to soak (ignored with -one or -duration)")
		duration = flag.Duration("duration", 0, "soak for this long instead of a fixed seed count")
		workers  = flag.String("workers", "1,2,4", "comma-separated real-runtime worker counts")
		strat    = flag.String("strategy", "fibril", "strategy: fibril, nounmap, mmap, cilkplus, tbb, leapfrog")
		panics   = flag.Bool("panics", false, "inject panics: 25% of leaves panic and 8% of interior nodes abandon their forked children (disables the simulator legs)")
		nodes    = flag.Int("nodes", 0, "override Params.MaxNodes (0 = default)")
		nosim    = flag.Bool("nosim", false, "skip the simulator legs")
		batch    = flag.Int("batch", 0, "Config.UnmapBatch for the real-runtime legs (0/1 = eager)")
		ceiling  = flag.Int64("ceiling", 0, "Config.MaxResidentPages for the real-runtime legs (0 = off)")
		quiet    = flag.Bool("q", false, "suppress the progress line")
	)
	flag.Parse()

	opts, err := parseOptions(*workers, *strat, *nosim || *panics, *batch, *ceiling)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fibril-check:", err)
		os.Exit(2)
	}
	params := check.Params{MaxNodes: *nodes}
	if *panics {
		params.PanicPct = 25
	}

	if *oneSeed || *seedFlag != 0 {
		if err := runSeed(*seedFlag, params, opts); err != nil {
			report(*seedFlag, params, opts, err)
			os.Exit(1)
		}
		fmt.Printf("seed %#x: conformant (%v)\n", *seedFlag, check.Generate(*seedFlag, params))
		return
	}

	start := time.Now()
	checked := 0
	for seed := uint64(0); ; seed++ {
		if *duration > 0 {
			if time.Since(start) > *duration {
				break
			}
		} else if checked >= *n {
			break
		}
		if err := runSeed(seed, params, opts); err != nil {
			report(seed, params, opts, err)
			os.Exit(1)
		}
		checked++
		if !*quiet && checked%50 == 0 {
			fmt.Printf("... %d seeds conformant (%.1fs)\n", checked, time.Since(start).Seconds())
		}
	}
	secs := time.Since(start).Seconds()
	fmt.Printf("fibril-check: %d seeds conformant in %.1fs — %d legs per seed, %.0f seeds/s (matrix: workers=%s strategy=%s)\n",
		checked, secs, opts.Legs(), float64(checked)/secs, *workers, *strat)
}

func runSeed(seed uint64, params check.Params, opts check.Options) error {
	return check.Differential(check.Generate(seed, params), opts)
}

// report prints the violation, then shrinks: it searches for smaller
// generator parameters under which the same seed still fails, so the
// replayed counterexample is as small as the bug allows.
func report(seed uint64, params check.Params, opts check.Options, err error) {
	fmt.Fprintf(os.Stderr, "fibril-check: VIOLATION at seed %#x\n%v\n\n%v\n",
		seed, check.Generate(seed, params), err)
	small, serr := shrink(seed, params, opts)
	if serr != nil {
		p := check.Generate(seed, small)
		fmt.Fprintf(os.Stderr, "\nshrunk to %v\n  params: %v\n  first violation:\n%v\n",
			p, small.String(), firstLine(serr))
		fmt.Fprintf(os.Stderr, "\nreplay: go run ./cmd/fibril-check -one -seed %#x -nodes %d\n",
			seed, p.Params.MaxNodes)
		return
	}
	fmt.Fprintf(os.Stderr, "\nreplay: go run ./cmd/fibril-check -one -seed %#x\n", seed)
}

// shrink lowers the structural parameters while the violation persists.
// The generator is deterministic in (seed, params), so each candidate is
// a cheap re-run; the last failing configuration wins.
func shrink(seed uint64, params check.Params, opts check.Options) (check.Params, error) {
	err := runSeed(seed, params, opts)
	if err == nil {
		return params, nil
	}
	best, bestErr := params.WithDefaults(), err
	for improved := true; improved; {
		improved = false
		for _, cand := range []check.Params{
			{MaxNodes: best.MaxNodes / 2, MaxDepth: best.MaxDepth, MaxFanout: best.MaxFanout, MaxCalls: best.MaxCalls, MaxWork: best.MaxWork, FrameMin: best.FrameMin, FrameMax: best.FrameMax, LoopPct: best.LoopPct, PanicPct: best.PanicPct},
			{MaxNodes: best.MaxNodes, MaxDepth: best.MaxDepth - 1, MaxFanout: best.MaxFanout, MaxCalls: best.MaxCalls, MaxWork: best.MaxWork, FrameMin: best.FrameMin, FrameMax: best.FrameMax, LoopPct: best.LoopPct, PanicPct: best.PanicPct},
			{MaxNodes: best.MaxNodes, MaxDepth: best.MaxDepth, MaxFanout: best.MaxFanout - 1, MaxCalls: best.MaxCalls, MaxWork: best.MaxWork, FrameMin: best.FrameMin, FrameMax: best.FrameMax, LoopPct: best.LoopPct, PanicPct: best.PanicPct},
			{MaxNodes: best.MaxNodes, MaxDepth: best.MaxDepth, MaxFanout: best.MaxFanout, MaxCalls: best.MaxCalls, MaxWork: best.MaxWork, FrameMin: best.FrameMin, FrameMax: best.FrameMax, LoopPct: 0, PanicPct: best.PanicPct},
		} {
			if cand.MaxNodes < 1 || cand.MaxDepth < 1 || cand.MaxFanout < 1 {
				continue
			}
			if cerr := runSeed(seed, cand, opts); cerr != nil {
				best, bestErr = cand.WithDefaults(), cerr
				improved = true
				break
			}
		}
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

func parseOptions(workers, strat string, nosim bool, batch int, ceiling int64) (check.Options, error) {
	var opts check.Options
	opts.Mem = []check.MemParams{{UnmapBatch: batch, MaxResidentPages: ceiling}}
	for _, w := range strings.Split(workers, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(w), "%d", &n); err != nil || n < 1 {
			return opts, fmt.Errorf("bad -workers entry %q", w)
		}
		opts.Workers = append(opts.Workers, n)
	}
	switch strings.TrimSpace(strat) {
	case "fibril":
		opts.Strategies = []core.Strategy{core.StrategyFibril}
	case "nounmap":
		opts.Strategies = []core.Strategy{core.StrategyFibrilNoUnmap}
	case "mmap":
		opts.Strategies = []core.Strategy{core.StrategyFibrilMMap}
	case "cilkplus":
		opts.Strategies = []core.Strategy{core.StrategyCilkPlus}
	case "tbb":
		opts.Strategies = []core.Strategy{core.StrategyTBB}
	case "leapfrog":
		opts.Strategies = []core.Strategy{core.StrategyLeapfrog}
	default:
		return opts, fmt.Errorf("bad -strategy %q", strat)
	}
	opts.NoSim = nosim
	return opts, nil
}
