package core

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"fibril/internal/stack"
)

// parfib is Listing 1's parallel Fibonacci on the core API: fork n-1, call
// n-2, join. It stresses fork/join density more than any real workload.
func parfib(w *W, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var fr Frame
	w.Init(&fr)
	var x, y int64
	w.Fork(&fr, func(cw *W) { parfib(cw, n-1, &x) })
	w.Call(func(cw *W) { parfib(cw, n-2, &y) })
	w.Join(&fr)
	*out = x + y
}

func fibSerial(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func runParfib(t *testing.T, cfg Config, n int) (int64, Stats) {
	t.Helper()
	rt := NewRuntime(cfg)
	var result int64
	stats := rt.Run(func(w *W) { parfib(w, n, &result) })
	return result, stats
}

func TestParfibAllStrategies(t *testing.T) {
	const n = 18
	want := fibSerial(n)
	for _, s := range Strategies() {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := Config{Workers: workers, Strategy: s}
			got, stats := runParfib(t, cfg, n)
			if got != want {
				t.Errorf("%s P=%d: parfib(%d) = %d, want %d", s, workers, n, got, want)
			}
			if stats.Forks == 0 {
				t.Errorf("%s P=%d: no forks recorded", s, workers)
			}
		}
	}
}

func TestSingleWorkerNeverSteals(t *testing.T) {
	_, stats := runParfib(t, Config{Workers: 1, Strategy: StrategyFibril}, 15)
	if stats.Steals != 0 {
		t.Errorf("steals = %d with one worker, want 0", stats.Steals)
	}
	if stats.Suspends != 0 {
		t.Errorf("suspends = %d with one worker, want 0", stats.Suspends)
	}
	if stats.StacksCreated != 1 {
		t.Errorf("stacks = %d with one worker, want 1", stats.StacksCreated)
	}
}

func TestSuspensionsBalanceResumes(t *testing.T) {
	for _, s := range []Strategy{StrategyFibril, StrategyFibrilNoUnmap, StrategyCilkPlus} {
		_, stats := runParfib(t, Config{Workers: 8, Strategy: s}, 20)
		if stats.Suspends != stats.Resumes {
			t.Errorf("%s: suspends=%d resumes=%d, want equal", s, stats.Suspends, stats.Resumes)
		}
	}
}

// TestResumeRebindsCounterShard forces a join to suspend on one slot and
// resume on the other, and checks that the W's counts land on the slot it
// occupies: a slot's counters have one writer — the goroutine occupying the
// slot — and a W still adding to its old slot would share them with that
// slot's next occupant. With two slots the migration is certain: the
// suspending root gives its slot to a fresh thief, and the only worker that
// can finish the stolen child, and so hand its slot over, is the other one.
// What the W counted privately before it suspended belongs to the slot it
// was counted on, and has to be in that slot's counters before the slot's
// next occupant adds to them. The name is kept so that its recorded test
// name stays stable.
func TestResumeRebindsCounterShard(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the root spins while the thief steals
	}
	rt := NewRuntime(Config{Workers: 2})
	const calls, callsBefore = 100, 7
	var started atomic.Bool
	var before, after int
	var oldForks, oldCalls, carried int64
	st := rt.Run(func(w *W) {
		before = w.slot.id
		for i := 0; i < callsBefore; i++ {
			w.Call(func(*W) {})
		}
		var fr Frame
		w.Init(&fr)
		w.Fork(&fr, func(*W) {
			started.Store(true)
			for fr.count.Load()&frameSuspended == 0 {
				runtime.Gosched() // finish only once the parent is parked
			}
		})
		for !started.Load() {
			runtime.Gosched() // Join must find the child gone, not pop it
		}
		w.Join(&fr)
		after = w.slot.id
		oldForks, oldCalls = rt.workers[before].forks.Load(), rt.workers[before].calls.Load()
		carried = w.forks + w.calls
		for i := 0; i < calls; i++ {
			w.Call(func(*W) {})
		}
	})
	if after == before {
		t.Fatalf("resumed on slot %d, the slot it suspended on: no migration to test", after)
	}
	if oldForks != 1 || oldCalls != callsBefore || carried != 0 {
		t.Errorf("on resuming, slot %d's counters held %d forks and %d calls and the W carried %d counts over, want 1, %d and 0",
			before, oldForks, oldCalls, carried, callsBefore)
	}
	if st.Forks != 1 || st.Steals != 1 || st.Suspends != 1 || st.Resumes != 1 || st.Calls != calls+callsBefore {
		t.Errorf("forks=%d steals=%d suspends=%d resumes=%d calls=%d, want 1/1/1/1/%d",
			st.Forks, st.Steals, st.Suspends, st.Resumes, st.Calls, calls+callsBefore)
	}
	if got := rt.workers[after].calls.Load(); got != calls {
		t.Errorf("slot %d's counters counted %d of the %d calls made on it", after, got, calls)
	}
}

func TestFibrilUnmapsOnlyOnSuspension(t *testing.T) {
	_, stats := runParfib(t, Config{Workers: 8, Strategy: StrategyFibril}, 20)
	if stats.Unmaps != stats.Suspends {
		t.Errorf("unmaps=%d suspends=%d, want equal in Fibril mode", stats.Unmaps, stats.Suspends)
	}
	if stats.Unmaps > stats.Steals {
		t.Errorf("unmaps=%d exceeds steals=%d — paper: not every steal unmaps, never the reverse",
			stats.Unmaps, stats.Steals)
	}
}

func TestNoUnmapStrategiesDoNotUnmap(t *testing.T) {
	for _, s := range []Strategy{StrategyFibrilNoUnmap, StrategyCilkPlus, StrategyTBB} {
		_, stats := runParfib(t, Config{Workers: 8, Strategy: s}, 20)
		if stats.Unmaps != 0 {
			t.Errorf("%s: unmaps = %d, want 0", s, stats.Unmaps)
		}
		if stats.VM.MadviseCalls != 0 {
			t.Errorf("%s: madvise calls = %d, want 0", s, stats.VM.MadviseCalls)
		}
	}
}

func TestInlineStealingUsesOneStackPerWorker(t *testing.T) {
	// TBB never suspends, so it needs at most P stacks.
	const workers = 8
	_, stats := runParfib(t, Config{Workers: workers, Strategy: StrategyTBB, StackPages: 4096}, 20)
	if stats.StacksCreated > workers {
		t.Errorf("created %d stacks for %d workers", stats.StacksCreated, workers)
	}
	if stats.Suspends != 0 {
		t.Errorf("suspends = %d, want 0", stats.Suspends)
	}
}

func TestFrameReuseAcrossPhases(t *testing.T) {
	// One frame, several fork/join phases — the heat benchmark's pattern.
	rt := NewRuntime(Config{Workers: 4, Strategy: StrategyFibril})
	var total atomic.Int64
	rt.Run(func(w *W) {
		var fr Frame
		w.Init(&fr)
		for phase := 0; phase < 10; phase++ {
			for i := 0; i < 8; i++ {
				w.Fork(&fr, func(cw *W) { total.Add(1) })
			}
			w.Join(&fr)
		}
	})
	if got := total.Load(); got != 80 {
		t.Errorf("completed %d children, want 80", got)
	}
}

func TestNestedFramesInOneTask(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, Strategy: StrategyFibril})
	var sum atomic.Int64
	rt.Run(func(w *W) {
		var outer, inner Frame
		w.Init(&outer)
		w.Fork(&outer, func(cw *W) { sum.Add(1) })
		w.Init(&inner)
		w.Fork(&inner, func(cw *W) { sum.Add(10) })
		w.Join(&inner)
		w.Fork(&outer, func(cw *W) { sum.Add(100) })
		w.Join(&outer)
	})
	if got := sum.Load(); got != 111 {
		t.Errorf("sum = %d, want 111", got)
	}
}

func TestSerialParallelReciprocity(t *testing.T) {
	// A "serial" helper (plain Call) invokes a callback that forks — the
	// pattern Cilk forbids and Fibril exists to allow (§1).
	rt := NewRuntime(Config{Workers: 4, Strategy: StrategyFibril})
	serialVisitor := func(w *W, visit func(*W, int)) {
		for i := 0; i < 5; i++ {
			i := i
			w.Call(func(cw *W) { visit(cw, i) })
		}
	}
	var sum atomic.Int64
	rt.Run(func(w *W) {
		serialVisitor(w, func(cw *W, item int) {
			var fr Frame
			cw.Init(&fr)
			cw.Fork(&fr, func(gw *W) { sum.Add(int64(item)) })
			cw.Fork(&fr, func(gw *W) { sum.Add(int64(item * 10)) })
			cw.Join(&fr)
		})
	})
	if got := sum.Load(); got != 110 {
		t.Errorf("sum = %d, want 110", got)
	}
}

func TestJoinWithoutForkIsFree(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2, Strategy: StrategyFibril})
	stats := rt.Run(func(w *W) {
		var fr Frame
		w.Init(&fr)
		w.Join(&fr)
	})
	if stats.Suspends != 0 {
		t.Errorf("suspends = %d for an empty join, want 0", stats.Suspends)
	}
}

func TestAllocaAccountsPages(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1, Strategy: StrategyFibril})
	var resident int64
	rt.Run(func(w *W) {
		release := w.Alloca(10 * 4096)
		resident = rt.AddressSpace().Snapshot().RSSPages
		release()
	})
	if resident < 10 {
		t.Errorf("resident = %d pages during Alloca(10 pages), want >= 10", resident)
	}
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2, Strategy: StrategyFibril})
	var out int64
	rt.Run(func(w *W) { parfib(w, 10, &out) })
	first := rt.Stats().Forks
	rt.Run(func(w *W) { parfib(w, 10, &out) })
	if got := rt.Stats().Forks; got != 2*first {
		t.Errorf("forks after two runs = %d, want %d", got, 2*first)
	}
}

func TestRSSReturnsToZeroAfterDrain(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, Strategy: StrategyFibril})
	var out int64
	rt.Run(func(w *W) { parfib(w, 16, &out) })
	// All stacks are back in the pool with frames popped; resident pages
	// are only what pooled stacks still cache.
	s := rt.AddressSpace().Snapshot()
	if s.RSSPages < 0 {
		t.Errorf("negative RSS %d", s.RSSPages)
	}
	if st := rt.Stats(); st.MaxStacksUsed != st.StacksCreated {
		t.Errorf("MaxStacksUsed = %d, StacksCreated = %d: the pool created a stack while one was free",
			st.MaxStacksUsed, st.StacksCreated)
	}
}

func TestDeepSpawnChainDoesNotOverflowThiefStacks(t *testing.T) {
	// A right-leaning spawn chain: each task forks one child and joins.
	// Under Fibril every suspension moves to a pool stack, so no stack
	// should ever hold more than a few frames.
	rt := NewRuntime(Config{Workers: 4, Strategy: StrategyFibril})
	var depthReached atomic.Int64
	var spawn func(w *W, d int)
	spawn = func(w *W, d int) {
		if d == 0 {
			return
		}
		var fr Frame
		w.Init(&fr)
		w.ForkSized(&fr, 1024, func(cw *W) { spawn(cw, d-1) })
		w.Join(&fr)
		depthReached.Add(1)
	}
	rt.Run(func(w *W) { spawn(w, 500) })
	if got := depthReached.Load(); got != 500 {
		t.Errorf("chain completed %d levels, want 500", got)
	}
}

func TestWorkerCountDefaults(t *testing.T) {
	rt := NewRuntime(Config{})
	if rt.Config().Workers <= 0 {
		t.Error("defaulted worker count not positive")
	}
	if rt.Config().Strategy != StrategyFibril {
		t.Errorf("default strategy = %v, want fibril", rt.Config().Strategy)
	}
}

// TestNegativeBoundsMeanOff pins that a negative bound reads back as 0, the
// value that switches it off: admission tests MaxInflight for > 0, and the
// ceiling tests MaxResidentPages the same way.
func TestNegativeBoundsMeanOff(t *testing.T) {
	c := NewRuntime(Config{Workers: 1, MaxResidentPages: -1, MaxInflight: -1}).Config()
	if c.MaxResidentPages != 0 || c.MaxInflight != 0 {
		t.Errorf("Config() = MaxResidentPages %d, MaxInflight %d; want 0 for each",
			c.MaxResidentPages, c.MaxInflight)
	}
}

func TestStrategyStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Strategies() {
		name := s.String()
		if name == "" || seen[name] {
			t.Errorf("strategy %d has bad/duplicate name %q", int(s), name)
		}
		seen[name] = true
	}
	if got := Strategy(99).String(); got != "Strategy(99)" {
		t.Errorf("unknown strategy string = %q", got)
	}
}

// TestNewRuntimeRejectsUnknownStrategy: a value outside Strategies() — the
// simulator-only strategies below zero, or one past the last — is refused at
// construction instead of silently running as some other strategy.
func TestNewRuntimeRejectsUnknownStrategy(t *testing.T) {
	for _, s := range []Strategy{-3, -2, -1, Strategy(len(Strategies()))} {
		v := catchAny(func() { NewRuntime(Config{Strategy: s}) })
		want := "core: unknown strategy " + s.String()
		if msg, _ := v.(string); msg != want {
			t.Errorf("NewRuntime(Strategy %d) panicked with %v, want %q", int(s), v, want)
		}
	}
}

// settleGoroutines waits up to five seconds for runtime.NumGoroutine to come
// down to base — an exiting goroutine has called its deferred Done before it
// is gone — and returns the last count. A count below base is a goroutine of
// an earlier test that ended meanwhile.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// listed reads how many goroutines are listed on rt's park lot, without a
// slot.
func listed(rt *Runtime) int {
	rt.park.mu.Lock()
	defer rt.park.mu.Unlock()
	return len(rt.park.ws)
}

// nestedSuspend runs, on w, a chain of depth fork-join regions, each inside
// the one child of the last, whose every parent suspends: a parent joins
// only once its child has started, which only a thief can make happen, and
// the leaf outlives that wait by 200 µs. At the leaf, depth frames are
// suspended at once, so the runtime holds Workers plus depth goroutines. It
// needs Workers >= 2.
func nestedSuspend(t *testing.T, w *W, depth int) {
	if depth == 0 {
		time.Sleep(200 * time.Microsecond)
		return
	}
	var fr Frame
	var started atomic.Bool
	w.Init(&fr)
	w.Fork(&fr, func(cw *W) {
		started.Store(true)
		nestedSuspend(t, cw, depth-1)
	})
	for deadline := time.Now().Add(10 * time.Second); !started.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Errorf("depth %d: no thief took the forked child in 10 s", depth)
			break
		}
	}
	w.Join(&fr)
}

// TestSparesLiveAndDieWithTheRuntime pins the lifecycle of the goroutines
// without a slot: a served job whose every round suspends makes thieves
// leave their slots and suspends reuse them, so the worker goroutines stay
// within Workers plus the frames suspended at once; Close releases every
// listed goroutine, so the process comes back to the goroutines it had
// before Start; and a restart does it all again. The last life runs nested
// chains of suspends instead, whose finishers retire in a burst and are all
// kept listed, and Close must end them all the same.
func TestSparesLiveAndDieWithTheRuntime(t *testing.T) {
	const workers, rounds, lives, depth = 4, 32, 4, 8
	rt := NewRuntime(Config{Workers: workers})
	base := runtime.NumGoroutine()
	for life := 0; life < lives; life++ {
		nested := life == lives-1
		rt.Start()
		var peak atomic.Int64
		j := rt.Submit(func(w *W) {
			run := suspendRounds(t, w)
			for r := 0; r < rounds; r++ {
				if nested {
					nestedSuspend(t, w, depth)
					continue
				}
				run(1)
				peak.Store(max(peak.Load(), int64(runtime.NumGoroutine()-base)))
			}
		})
		watchdog(t, 30*time.Second, func() {
			if err := j.Err(); err != nil {
				t.Errorf("life %d: %v", life, err)
			}
		})
		j.Release()
		// The last finisher lists itself before it resumes the root.
		n := 0
		for deadline := time.Now().Add(10 * time.Second); n == 0 && time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
			n = listed(rt)
		}
		if n == 0 {
			t.Errorf("life %d: no goroutine listed after %d suspends", life, rounds)
		}
		// Sampled while the root runs, so no frame is suspended; the two
		// more are the one frame suspended at once in a round and the
		// watchdog's goroutine waiting in Err.
		if p := peak.Load(); p > workers+2 {
			t.Errorf("life %d: %d goroutines at the peak, want at most %d occupants + 1 per suspended frame + 1 waiter",
				life, p, workers)
		}
		watchdog(t, 10*time.Second, func() {
			if err := rt.Close(context.Background()); err != nil {
				t.Errorf("life %d: Close: %v", life, err)
			}
		})
		if n := listed(rt); n != 0 {
			t.Errorf("life %d: %d goroutines still listed after Close", life, n)
		}
		if n := settleGoroutines(base); n > base {
			t.Fatalf("life %d: %d goroutines after Close, %d before Start", life, n, base)
		}
		if st := rt.Stats(); st.Suspends != st.Resumes {
			t.Errorf("life %d: suspends=%d resumes=%d, want equal", life, st.Suspends, st.Resumes)
		}
	}
}

// TestNestedSuspendsStartNoGoroutines pins that the list of goroutines
// without a slot never refuses one. A chain of nested suspends needs Workers
// plus its depth goroutines at its leaf, and its finishers retire in a burst
// as the chain unwinds. A list capped at Workers let the burst's excess
// exit, and the next chain's suspends started them again: a goroutine birth
// and death per suspend past the cap. Once one warm-up root has reached the
// chain's peak, the goroutines it started are all listed when the next root
// needs them, so 50 more roots start none.
func TestNestedSuspendsStartNoGoroutines(t *testing.T) {
	const workers, depth, roots = 2, 8, 50
	rt := NewRuntime(Config{Workers: workers})
	rt.Start()
	defer rt.Close(context.Background())
	run := func() {
		j := rt.Submit(func(w *W) { nestedSuspend(t, w, depth) })
		watchdog(t, 30*time.Second, func() {
			if err := j.Err(); err != nil {
				t.Error(err)
			}
		})
		j.Release()
	}
	run()
	starts, suspends := rt.park.starts.Load(), rt.Stats().Suspends
	for range roots {
		run()
	}
	suspends = rt.Stats().Suspends - suspends
	if suspends == 0 {
		t.Fatalf("none of %d roots suspended", roots)
	}
	if n := rt.park.starts.Load() - starts; n != 0 {
		t.Errorf("%d roots of %d nested suspends (%d suspends) started %d goroutines after the warm-up, want 0",
			roots, depth, suspends, n)
	}
}

// TestResumedJoinFindsFinisherListed pins Listing 3's retirement order: the
// last stolen child's finisher puts its stack back and lists itself on the
// park lot before it delivers its slot to the suspended owner (lines 68–75),
// so a Join that returned from a suspend finds the finisher listed, and the
// owner's next suspend reuses it instead of starting a goroutine. Every
// round suspends, and its child finishes only once the parent is parked and
// its replacement thief has taken a stack: a finisher listed before the
// owner hands its slot over is the goroutine that hand-over takes.
func TestResumedJoinFindsFinisherListed(t *testing.T) {
	const rounds = 32
	rt := NewRuntime(Config{Workers: 2})
	var st Stats
	watchdog(t, 30*time.Second, func() {
		st = rt.Run(func(w *W) {
			var fr Frame
			var started atomic.Bool
			var finisher atomic.Pointer[W]
			child := func(cw *W) {
				inUse := rt.pool.InUse() // the parent's stack and this thief's
				finisher.Store(cw)
				started.Store(true)
				for fr.count.Load()&frameSuspended == 0 || rt.pool.InUse() == inUse {
					runtime.Gosched()
				}
			}
			for r := 0; r < rounds; r++ {
				started.Store(false)
				w.Init(&fr)
				w.Fork(&fr, child)
				for !started.Load() {
					runtime.Gosched()
				}
				w.Join(&fr)
				rt.park.mu.Lock()
				isListed := slices.Contains(rt.park.ws, finisher.Load())
				n := len(rt.park.ws)
				rt.park.mu.Unlock()
				if !isListed {
					t.Errorf("round %d: the Join returned with its finisher not listed (%d listed)", r, n)
				}
			}
		})
	})
	if st.Suspends != rounds || st.Resumes != rounds {
		t.Errorf("suspends=%d resumes=%d, want %d each", st.Suspends, st.Resumes, rounds)
	}
}

// TestReusedSpareStallsOnBoundedPool pins that a listed goroutine takes its
// stack through takeStack like a new thief, so the Cilk Plus bounded pool
// stalls it. Three slots share two stacks — a pool bounded at 2, installed
// before Start — and the job starts once all three thieves have parked: a
// parked thief holds no stack. Once the job's first
// suspend round is over and the other two slots are free again, the root's
// is the only stack in use and the two other goroutines are listed. The second round's fork gives one of them a slot
// and the second stack to steal the child with; the suspend that follows
// gives the other the root's slot, and it stalls: one stall more, nobody
// listed, and no goroutine more. Close then ends them all.
func TestReusedSpareStallsOnBoundedPool(t *testing.T) {
	type look struct {
		stalls                    int64
		goroutines, listed, nfree int
	}
	rt := NewRuntime(Config{Workers: 3, Strategy: StrategyCilkPlus})
	rt.pool = stack.NewPool(rt.as, rt.cfg.StackPages, 2)
	see := func() look {
		return look{rt.Stats().PoolStalls, runtime.NumGoroutine(), listed(rt), rt.ParkedThieves()}
	}
	base := runtime.NumGoroutine()
	rt.Start()
	waitParked(t, rt, 3, 10*time.Second) // three goroutines, all listed
	var before, during look
	j := rt.Submit(func(w *W) {
		suspendRounds(t, w)(1)
		// Wait for the other two slots to be free: their goroutines parked.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if before = see(); before.nfree == 2 || time.Now().After(deadline) {
				break
			}
		}
		// The second round, with a child that stays until the suspend it
		// causes has handed the slot on and the new occupant has stalled.
		var fr Frame
		var started atomic.Bool
		w.Init(&fr)
		w.Fork(&fr, func(*W) {
			started.Store(true)
			for deadline := time.Now().Add(10 * time.Second); rt.Stats().PoolStalls == before.stalls; time.Sleep(50 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Error("the second suspend's replacement thief never stalled")
					break
				}
			}
			during = see()
		})
		for !started.Load() {
			runtime.Gosched()
		}
		w.Join(&fr)
	})
	watchdog(t, 30*time.Second, func() {
		if err := j.Err(); err != nil {
			t.Errorf("job: %v", err)
		}
	})
	t.Logf("before the second round %+v, during its suspend %+v", before, during)
	if before.listed != 2 || during.listed != 0 || during.stalls != before.stalls+1 || during.goroutines != before.goroutines {
		t.Errorf("the second round took listed %d -> %d, stalls %d -> %d, goroutines %d -> %d; want 2 -> 0, one stall more, no goroutine more",
			before.listed, during.listed, before.stalls, during.stalls, before.goroutines, during.goroutines)
	}
	watchdog(t, 10*time.Second, func() {
		if err := rt.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines after Close, %d before Start", n, base)
	}
}
