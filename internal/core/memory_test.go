package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fibril/internal/vm"
)

// Tests for the memory rule (every suspend unmaps) and the RSS ceiling.

func TestEagerModeKeepsNewCountersZero(t *testing.T) {
	_, stats := runParfib(t, Config{Workers: 4, Strategy: StrategyFibril}, 20)
	if stats.Unmaps != stats.Suspends {
		t.Errorf("unmaps=%d suspends=%d, want equal", stats.Unmaps, stats.Suspends)
	}
	if stats.CeilingHits != 0 || stats.PoolReclaims != 0 || stats.ReclaimedPages != 0 {
		t.Errorf("ceiling counters non-zero with no ceiling configured")
	}
}

// checkMadviseFlow asserts that every madvise call is a suspend's unmap or
// a pool reclaim, and every madvised page is accounted to one of them.
func checkMadviseFlow(t *testing.T, stats Stats) {
	t.Helper()
	if got := stats.Unmaps + stats.PoolReclaims; got != stats.VM.MadviseCalls {
		t.Errorf("unmaps %d + pool reclaims %d != madvise calls %d",
			stats.Unmaps, stats.PoolReclaims, stats.VM.MadviseCalls)
	}
	if got := stats.UnmappedPages + stats.ReclaimedPages; got != stats.VM.MadvisedPages {
		t.Errorf("unmapped %d + reclaimed %d != madvised pages %d",
			stats.UnmappedPages, stats.ReclaimedPages, stats.VM.MadvisedPages)
	}
}

// runSuspendRounds runs, under cfg, fork-join regions whose one child is
// certainly stolen and whose parent certainly suspends on it, whatever
// GOMAXPROCS is: the parent does not join until the child has started, which
// only a thief can make happen, and the child outlives that wait, dirtying
// eight pages of the thief's stack on the way. Every suspend but the first
// finds a stack some retired thief freed with that residue on it.
func runSuspendRounds(t *testing.T, cfg Config) Stats {
	t.Helper()
	const rounds, dirtyPages = 8, 8
	return NewRuntime(cfg).Run(func(w *W) {
		for r := 0; r < rounds; r++ {
			var fr Frame
			var started atomic.Bool
			w.Init(&fr)
			w.Fork(&fr, func(cw *W) {
				started.Store(true)
				cw.CallSized(dirtyPages*vm.PageSize, func(*W) {})
				time.Sleep(200 * time.Microsecond)
			})
			for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Errorf("round %d: no thief took the forked child in 10 s", r)
					break
				}
			}
			w.Join(&fr)
		}
	})
}

func TestRSSCeilingTriggersReclaim(t *testing.T) {
	// No suspend-time unmap, so residue builds up on every stack, under a
	// ceiling one stolen child's pages already pass: the valve alone has to
	// give the pages back, and every madvise call is its.
	stats := runSuspendRounds(t, Config{
		Workers:          4,
		Strategy:         StrategyFibrilNoUnmap,
		StackPages:       64,
		MaxResidentPages: 4,
	})
	checkMadviseFlow(t, stats)
	if stats.Unmaps != 0 {
		t.Errorf("unmaps = %d under %v, want 0", stats.Unmaps, StrategyFibrilNoUnmap)
	}
	if stats.CeilingHits == 0 {
		t.Error("RSS passed a 4-page ceiling but CeilingHits = 0")
	}
	if stats.PoolReclaims == 0 || stats.ReclaimedPages == 0 {
		t.Errorf("pool reclaims = %d / %d pages with %d suspends over residue, want > 0",
			stats.PoolReclaims, stats.ReclaimedPages, stats.Suspends)
	}
}

func TestCeilingKeepsEnvelope(t *testing.T) {
	// The ceiling rides on the one unmap rule, it does not replace it: with
	// a ceiling far below the working set every suspend still unmaps, the
	// valve reclaims what free stacks hold, and the two account for all
	// madvise traffic between them. The ceiling is soft, so MaxRSS may pass
	// it, but never what the stacks could hold.
	cfg := Config{
		Workers:          4,
		Strategy:         StrategyFibril,
		StackPages:       64,
		MaxResidentPages: 4,
	}
	stats := runSuspendRounds(t, cfg)
	if stats.Unmaps != stats.Suspends {
		t.Errorf("unmaps=%d suspends=%d, want equal under a ceiling too", stats.Unmaps, stats.Suspends)
	}
	checkMadviseFlow(t, stats)
	if stats.Unmaps == 0 || stats.PoolReclaims == 0 {
		t.Errorf("unmaps = %d, pool reclaims = %d; want the rule and the valve both to fire",
			stats.Unmaps, stats.PoolReclaims)
	}
	if bound := int64(stats.StacksCreated) * int64(cfg.StackPages); stats.VM.MaxRSSPages > bound {
		t.Errorf("MaxRSS %d pages exceeds %d stacks x %d pages",
			stats.VM.MaxRSSPages, stats.StacksCreated, cfg.StackPages)
	}
}
