package core

import "testing"

// Tests for the memory-pressure engine: coalesced unmap, the hysteresis
// gate, and the RSS ceiling.

func TestEagerModeKeepsNewCountersZero(t *testing.T) {
	for _, batch := range []int{0, 1, -3} {
		_, stats := runParfib(t, Config{Workers: 4, Strategy: StrategyFibril, UnmapBatch: batch}, 20)
		if stats.Unmaps != stats.Suspends {
			t.Errorf("batch=%d: unmaps=%d suspends=%d, want equal in eager mode",
				batch, stats.Unmaps, stats.Suspends)
		}
		if stats.UnmapBatches != 0 || stats.ReclaimCancels != 0 || stats.ReclaimSkips != 0 {
			t.Errorf("batch=%d: batches=%d cancels=%d skips=%d, want all 0 in eager mode",
				batch, stats.UnmapBatches, stats.ReclaimCancels, stats.ReclaimSkips)
		}
		if stats.CeilingHits != 0 || stats.PoolReclaims != 0 || stats.ReclaimedPages != 0 {
			t.Errorf("batch=%d: ceiling counters non-zero with no ceiling configured", batch)
		}
	}
}

func TestCoalescedUnmapConservation(t *testing.T) {
	for _, batch := range []int{2, 4, 16} {
		cfg := Config{Workers: 8, Strategy: StrategyFibril, UnmapBatch: batch}
		rt := NewRuntime(cfg)
		var result int64
		stats := rt.Run(func(w *W) { parfib(w, 21, &result) })
		if result != fibSerial(21) {
			t.Fatalf("batch=%d: wrong result %d", batch, result)
		}
		// Every suspend resolves exactly once: flushed, cancelled by
		// its resume, or skipped by the hysteresis gate.
		if got := stats.Unmaps + stats.ReclaimCancels + stats.ReclaimSkips; got != stats.Suspends {
			t.Errorf("batch=%d: unmaps %d + cancels %d + skips %d = %d != suspends %d",
				batch, stats.Unmaps, stats.ReclaimCancels, stats.ReclaimSkips,
				got, stats.Suspends)
		}
		if stats.UnmapBatches > stats.Unmaps {
			t.Errorf("batch=%d: batches %d > unmaps %d",
				batch, stats.UnmapBatches, stats.Unmaps)
		}
		// Every madvise call is a deferred/eager unmap or a pool
		// reclaim; every madvised page is accounted to one of them.
		if got := stats.Unmaps + stats.PoolReclaims; got != stats.VM.MadviseCalls {
			t.Errorf("batch=%d: unmaps %d + pool reclaims %d != madvise calls %d",
				batch, stats.Unmaps, stats.PoolReclaims, stats.VM.MadviseCalls)
		}
		if got := stats.UnmappedPages + stats.ReclaimedPages; got != stats.VM.MadvisedPages {
			t.Errorf("batch=%d: unmapped %d + reclaimed %d != madvised %d",
				batch, stats.UnmappedPages, stats.ReclaimedPages, stats.VM.MadvisedPages)
		}
		if pending := rt.PendingReclaims(); pending != 0 {
			t.Errorf("batch=%d: %d tickets pending after Run", batch, pending)
		}
		if stats.Suspends != stats.Resumes {
			t.Errorf("batch=%d: suspends %d != resumes %d",
				batch, stats.Suspends, stats.Resumes)
		}
	}
}

func TestCoalescedUnmapReducesMadvise(t *testing.T) {
	// Identical program and seed; batching must strictly cut madvise
	// traffic (cancelled tickets) whenever the eager run issued any.
	cfgEager := Config{Workers: 4, Strategy: StrategyFibril}
	cfgBatch := Config{Workers: 4, Strategy: StrategyFibril, UnmapBatch: 8}
	_, eager := runParfib(t, cfgEager, 22)
	_, batched := runParfib(t, cfgBatch, 22)
	if eager.VM.MadviseCalls == 0 {
		t.Skip("eager run produced no madvise traffic (no steals at P=4?)")
	}
	if batched.VM.MadviseCalls >= eager.VM.MadviseCalls {
		t.Errorf("coalesced madvise calls = %d, eager = %d; batching did not help",
			batched.VM.MadviseCalls, eager.VM.MadviseCalls)
	}
	// A batched run that happened not to suspend (few steals on a small
	// host) has nothing to save; otherwise some ticket must have been
	// cancelled by its resume or gated by the watermark.
	if batched.Suspends > 0 && batched.ReclaimCancels+batched.ReclaimSkips == 0 {
		t.Errorf("%d suspends but no ticket cancelled or gated — the savings mechanism never fired",
			batched.Suspends)
	}
}

func TestRSSCeilingTriggersReclaim(t *testing.T) {
	// A ceiling far below the working set forces pressure on every stack
	// take; pool reclaims fire once free stacks carry residue.
	cfg := Config{
		Workers:          4,
		Strategy:         StrategyFibrilNoUnmap, // no suspend-time unmap: residue builds up
		StackPages:       64,
		FrameBytes:       4096, // page-sized frames so RSS dwarfs the ceiling
		MaxResidentPages: 16,
	}
	// Reclaims need a stack freed with residue and then re-taken, which in
	// turn needs a steal to have created a second stack — a scheduling
	// event a small host can miss in any one run (two runs in three, with
	// the other packages' tests taking the CPUs). Retry, a few milliseconds
	// an attempt, and check the flow equalities on every attempt.
	var stats Stats
	for attempt := 0; attempt < 100; attempt++ {
		rt := NewRuntime(cfg)
		var result int64
		stats = rt.Run(func(w *W) { parfib(w, 20, &result) })
		if result != fibSerial(20) {
			t.Fatalf("wrong result %d", result)
		}
		if got := stats.Unmaps + stats.PoolReclaims; got != stats.VM.MadviseCalls {
			t.Errorf("unmaps %d + pool reclaims %d != madvise calls %d",
				stats.Unmaps, stats.PoolReclaims, stats.VM.MadviseCalls)
		}
		if stats.PoolReclaims > 0 {
			break
		}
	}
	if stats.CeilingHits == 0 {
		t.Error("RSS stayed over a 16-page ceiling but CeilingHits = 0")
	}
	if stats.PoolReclaims == 0 || stats.ReclaimedPages == 0 {
		if stats.Steals == 0 {
			t.Skip("no run produced a steal at P=4; reclaim pressure unreachable")
		}
		t.Errorf("pool reclaims = %d / %d pages under heavy pressure, want > 0",
			stats.PoolReclaims, stats.ReclaimedPages)
	}
	if got := stats.Unmaps + stats.PoolReclaims; got != stats.VM.MadviseCalls {
		t.Errorf("unmaps %d + pool reclaims %d != madvise calls %d",
			stats.Unmaps, stats.PoolReclaims, stats.VM.MadviseCalls)
	}
	if got := stats.UnmappedPages + stats.ReclaimedPages; got != stats.VM.MadvisedPages {
		t.Errorf("unmapped %d + reclaimed %d != madvised pages %d",
			stats.UnmappedPages, stats.ReclaimedPages, stats.VM.MadvisedPages)
	}
}

func TestCeilingKeepsEnvelope(t *testing.T) {
	// The ceiling is soft: correctness and the per-stack envelope hold
	// regardless, but MaxRSS must never exceed what the stacks could hold.
	cfg := Config{
		Workers:          8,
		Strategy:         StrategyFibril,
		UnmapBatch:       4,
		StackPages:       64,
		MaxResidentPages: 32,
	}
	rt := NewRuntime(cfg)
	var result int64
	stats := rt.Run(func(w *W) { parfib(w, 20, &result) })
	if result != fibSerial(20) {
		t.Fatalf("wrong result %d", result)
	}
	bound := int64(stats.StacksCreated) * int64(cfg.StackPages)
	if stats.VM.MaxRSSPages > bound {
		t.Errorf("MaxRSS %d pages exceeds %d stacks x %d pages",
			stats.VM.MaxRSSPages, stats.StacksCreated, cfg.StackPages)
	}
	if rt.PendingReclaims() != 0 {
		t.Error("pending tickets after ceiling run")
	}
}
