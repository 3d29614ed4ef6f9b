// N-queens on the public API: irregular task parallelism with per-child
// result slots — one of the workloads the paper's evaluation leans on for
// load-balancing behaviour.
//
//	go run ./examples/nqueens -n 11 -workers 8 -strategy tbb
package main

import (
	"flag"
	"fmt"
	"os"

	"fibril"
)

func solve(w *fibril.W, n int, cols, d1, d2 uint32, out *int64) {
	full := uint32(1<<n) - 1
	if cols == full {
		*out = 1
		return
	}
	avail := full &^ (cols | d1 | d2)
	if avail == 0 {
		return
	}
	var fr fibril.Frame
	w.Init(&fr)
	counts := make([]int64, 0, n)
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		counts = append(counts, 0)
		slot := &counts[len(counts)-1]
		c, dd1, dd2 := cols|bit, (d1|bit)<<1&full, (d2|bit)>>1
		w.Fork(&fr, func(w *fibril.W) { solve(w, n, c, dd1, dd2, slot) })
	}
	w.Join(&fr)
	var total int64
	for _, c := range counts {
		total += c
	}
	*out = total
}

func main() {
	n := flag.Int("n", 10, "board size")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "fibril", "fibril | fibril-nounmap | cilkplus | tbb")
	flag.Parse()

	var strat fibril.Strategy
	found := false
	for _, s := range fibril.Strategies() {
		if s.String() == *strategy {
			strat, found = s, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	rt := fibril.New(fibril.Config{Workers: *workers, Strategy: strat})
	var count int64
	stats := rt.Run(func(w *fibril.W) { solve(w, *n, 0, 0, 0, &count) })
	fmt.Printf("%d-queens solutions: %d\n", *n, count)
	fmt.Printf("scheduler: %v\n", stats)
}
