package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"fibril/internal/stack"
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

// runSuspendRounds runs, under cfg, eight rounds of suspendRounds.
func runSuspendRounds(t *testing.T, cfg Config) Stats {
	t.Helper()
	return NewRuntime(cfg).Run(func(w *W) { suspendRounds(t, w)(8) })
}

// suspendRounds returns a function that runs, on w, fork-join regions whose
// one child is certainly stolen and whose parent certainly suspends on it,
// whatever GOMAXPROCS is: the parent does not join until the child has
// started, which only a thief can make happen, and the child, once it has
// dirtied eight pages of the thief's stack, yields until the parent's frame
// carries frameSuspended. So it must run under a strategy that suspends —
// under TBB, whose join never does, the child would wait forever. Every
// suspend but the first finds a stack some retired thief freed with that
// residue on it. The frame and the child are made once, so a round allocates
// nothing of its own: what it allocates, the runtime does.
func suspendRounds(t *testing.T, w *W) func(rounds int) {
	var fr Frame
	return suspendRoundsOn(t, w, func() *Frame { return &fr })
}

// suspendRoundsOn is suspendRounds with each round's frame from frame.
func suspendRoundsOn(t *testing.T, w *W, frame func() *Frame) func(rounds int) {
	const dirtyPages = 8
	var started atomic.Bool
	var fr *Frame // the round's; the Fork publishes it to the child's thief
	child := func(cw *W) {
		started.Store(true)
		cw.CallSized(dirtyPages*vm.PageSize, func(*W) {})
		for fr.count.Load()&frameSuspended == 0 {
			runtime.Gosched()
		}
	}
	return func(rounds int) {
		for r := 0; r < rounds; r++ {
			fr = frame()
			started.Store(false)
			w.Init(fr)
			w.Fork(fr, child)
			for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Errorf("round %d: no thief took the forked child in 10 s", r)
					break
				}
			}
			w.Join(fr)
		}
	}
}

// suspendWindowAllocs counts the heap objects allocated by suspendRounds'
// rounds on frames from frame, once warm-up rounds have listed the first
// spare, and how many of them suspended. Then twelve stacks taken and put
// back leave the pool's free list with room for the one or two more a round
// frees at once (append grows it to 16), so that no Put in the window
// appends to a full one. It all runs on one P, after a collection and with
// the collector off: with more Ps, the Go runtime's own caches allocate for
// thousands of rounds — the records a blocked semaphore or Cond operation
// waits in are taken from one P's list and returned to another's, and a P
// that only takes refills from the central list — and a collection inside
// the window empties that list, or wakes the background scavenger, whose
// timer allocates. The collection comes before the warm-up, not between it
// and the window: there, the first run in a fresh process allocated one
// such record (acquireSudog, under W.wait) about one time in three. The
// race detector allocates on its own account, so the count is only
// meaningful without it.
func suspendWindowAllocs(t *testing.T, frame func() *Frame) (allocs uint64, suspends int64) {
	t.Helper()
	const warm, rounds = 64, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	NewRuntime(Config{Workers: 2}).Run(func(w *W) {
		suspendRounds(t, w)(warm)
		var extra [12]*stack.Stack
		for i := range extra {
			extra[i] = w.rt.takeStack(w.slot)
		}
		for _, st := range extra {
			w.rt.pool.Put(0, st)
		}
		run := suspendRoundsOn(t, w, frame)
		s0 := w.rt.Stats().Suspends
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(rounds)
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
		suspends = w.rt.Stats().Suspends - s0
	})
	if suspends != rounds {
		t.Fatalf("%d of %d rounds suspended, want every one", suspends, rounds)
	}
	return allocs, suspends
}

// TestSuspendRoundAllocs is the allocation gate for the suspend path: once a
// spare exists, a suspend/resume round allocates nothing. The suspending
// parent's replacement thief is a listed spare, not a new goroutine with a
// new W, and both wait on the hand-off inside their own W, so the frame
// carries nothing to make on a suspend. At the runtime that started a
// goroutine per suspend every round allocated at least three objects: the
// W, the go statement's closure and the new goroutine's timer.
func TestSuspendRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var fr Frame
	allocs, suspends := suspendWindowAllocs(t, func() *Frame { return &fr })
	if allocs != 0 {
		t.Errorf("%d suspend/resume rounds allocated %d objects, want 0", suspends, allocs)
	}
}

// TestSuspendFreshFrameAllocs is TestSuspendRoundAllocs's leg for frames
// that have never suspended, such as the per-stage frames of a served
// request: every round is on a new Frame, and the frame is all it allocates.
// At the runtime whose frames carried a resume channel, made on a frame's
// first suspend, a suspending round on a fresh frame allocated three
// objects: the frame, the channel and the channel's buffer.
func TestSuspendFreshFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	allocs, suspends := suspendWindowAllocs(t, func() *Frame { return new(Frame) })
	if allocs != uint64(suspends) {
		t.Errorf("%d suspend/resume rounds on fresh frames allocated %d objects, want %d: the frames",
			suspends, allocs, suspends)
	}
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
