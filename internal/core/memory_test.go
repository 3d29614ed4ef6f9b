package core

import (
	"runtime"
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
// one child is certainly stolen and whose parent suspends on it, whatever
// GOMAXPROCS is: the parent does not join until the child has started,
// which only a thief can make happen, and the child outlives that wait by
// 200 µs, dirtying eight pages of the thief's stack on the way, so only a
// parent descheduled for all of that finds the child done. Every suspend
// but the first finds a stack some retired thief freed with that residue on
// it. The frame and the child are made once, so a round allocates nothing
// of its own: what it allocates, the runtime does.
func suspendRounds(t *testing.T, w *W) func(rounds int) {
	var fr Frame
	return suspendRoundsOn(t, w, func() *Frame { return &fr })
}

// suspendRoundsOn is suspendRounds with each round's frame from frame.
func suspendRoundsOn(t *testing.T, w *W, frame func() *Frame) func(rounds int) {
	const dirtyPages = 8
	var started atomic.Bool
	child := func(cw *W) {
		started.Store(true)
		cw.CallSized(dirtyPages*vm.PageSize, func(*W) {})
		time.Sleep(200 * time.Microsecond)
	}
	return func(rounds int) {
		for r := 0; r < rounds; r++ {
			fr := frame()
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

// TestSuspendRoundAllocs is the allocation gate for the suspend path: once a
// spare exists, a suspend/resume round allocates nothing. The suspending
// parent's replacement thief is a listed spare, not a new goroutine with a
// new W, and both wait on the hand-off inside their own W, so the frame
// carries nothing to make on a suspend. At the runtime that started a
// goroutine per suspend every round allocated at least three objects: the
// W, the go statement's closure and the new goroutine's timer. The warm-up
// rounds list the first spare and let every thief goroutine sleep once (a
// goroutine's first time.Sleep makes its timer). Then twelve stacks taken
// and put back leave the pool's free list with room for the one or two more
// a round frees at once (append grows it to 16), so that no Put in the
// window appends to a full one.
//
// The test runs on one P. With more, the Go runtime's own caches allocate
// for thousands of rounds: the records a blocked semaphore or Cond
// operation waits in are taken from one P's list and returned to
// another's, and a P that only takes refills from the central list, which
// every GC empties. The race detector allocates on its own account, so the
// count is only meaningful without it.
func TestSuspendRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const warm, rounds = 64, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs uint64
	var suspends int64
	NewRuntime(Config{Workers: 2}).Run(func(w *W) {
		run := suspendRounds(t, w)
		run(warm)
		var extra [12]*stack.Stack
		for i := range extra {
			extra[i] = w.rt.takeStack(0)
		}
		for _, st := range extra {
			w.rt.pool.Put(0, st)
		}
		s0 := w.rt.Stats().Suspends
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(rounds)
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
		suspends = w.rt.Stats().Suspends - s0
	})
	if suspends == 0 {
		t.Fatalf("none of %d rounds suspended", rounds)
	}
	if allocs != 0 {
		t.Errorf("%d suspend/resume rounds (%d suspends) allocated %d objects, want 0", rounds, suspends, allocs)
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
	const warm, rounds = 64, 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs uint64
	var suspends int64
	NewRuntime(Config{Workers: 2}).Run(func(w *W) {
		suspendRounds(t, w)(warm)
		var extra [12]*stack.Stack
		for i := range extra {
			extra[i] = w.rt.takeStack(0)
		}
		for _, st := range extra {
			w.rt.pool.Put(0, st)
		}
		run := suspendRoundsOn(t, w, func() *Frame { return new(Frame) })
		s0 := w.rt.Stats().Suspends
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run(rounds)
		runtime.ReadMemStats(&m1)
		allocs = m1.Mallocs - m0.Mallocs
		suspends = w.rt.Stats().Suspends - s0
	})
	if suspends == 0 {
		t.Fatalf("none of %d rounds suspended", rounds)
	}
	if allocs != rounds {
		t.Errorf("%d suspend/resume rounds on fresh frames (%d suspends) allocated %d objects, want %d: the frames",
			rounds, suspends, allocs, rounds)
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
