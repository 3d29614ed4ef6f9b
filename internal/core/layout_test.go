package core

import (
	"fmt"
	"testing"

	"fibril/internal/cacheline/layouttest"
)

// The groups of each padded type, by writer (DESIGN.md §15). Every field
// must be listed, so a new one has to be given a writer before these tests
// pass.
var (
	workerGroups = [][]string{
		{"id", "deque"},  // fixed at NewRuntime; read by the occupant and by thieves
		{"rng", "arena"}, // the occupant's
		{"remote"},       // any worker's
	}
	runtimeGroups = [][]string{
		{"cfg", "as", "pool", "reclaim", "workers", "park", "done", "trc", "metrics",
			"subq", "stampJobs", "stats"}, // read-mostly
		{"goroutineWG", "admit"},                                     // per suspension / admission / lifecycle
		{"jobsSubmitted", "jobsAdmitted", "jobsShed", "jobsDrained"}, // submitters'
		{"jobsCompleted", "jobSeq"},                                  // completers'
	}
	parkGroup = []string{"mu", "cond", "tokens", "closed", "nparked"}
)

// TestLayout pins who-writes-which-line for the core's per-slot and
// per-goroutine state with offsets alone.
func TestLayout(t *testing.T) {
	layouttest.Groups(t, worker{}, workerGroups...)
	layouttest.Groups(t, Runtime{}, runtimeGroups...)
	layouttest.Groups(t, parkLot{}, parkGroup)
	// A W is touched by its own goroutine only: one group, kept off its
	// neighbours.
	layouttest.Groups(t, W{}, []string{"rt", "slot", "stack", "stats", "depth", "frame",
		"released", "frameBytes", "strategy", "slowFork", "wantsFork", "scratch"})
	layouttest.Element(t, counterShard{})
	layouttest.Element(t, intakeShard{})
}

// TestLayoutRealAddresses checks a live Workers=4 runtime: Go aligns a heap
// object to its size class only, so the offsets TestLayout checks say
// nothing about where two slots' objects end up relative to each other. No hot range of one slot — its deque (whose two
// halves package deque's own test tells apart), its worker's three groups,
// its counter shard, its intake shard — may touch a cacheline unit that
// another slot's, the park lot's or a Runtime group's touches.
func TestLayoutRealAddresses(t *testing.T) {
	t.Run("the", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		var xs []layouttest.Extent
		for i, g := range runtimeGroups {
			xs = append(xs, layouttest.Of(fmt.Sprintf("Runtime group %d", i), rt, g...))
		}
		xs = append(xs, layouttest.Of("park lot", rt.park, parkGroup...))
		for i, w := range rt.workers {
			slot := fmt.Sprintf("slot %d", i)
			xs = append(xs, layouttest.Of(slot+" deque", w.deque))
			for g, fields := range workerGroups {
				xs = append(xs, layouttest.Of(fmt.Sprintf("%s worker group %d", slot, g), w, fields...))
			}
			xs = append(xs,
				layouttest.Of(slot+" counters", &rt.stats[i]),
				layouttest.Of(slot+" intake", &rt.subq.shards[i]))
		}
		layouttest.Disjoint(t, xs)
		rt.Run(func(w *W) {}) // the runtime under inspection works (and stays live)
	})
}
