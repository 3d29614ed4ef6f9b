package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"fibril/internal/deque"
)

// This file is the steal-heavy zero-allocation gate for the ForkArg fork
// path: at P=4, with thieves constantly raiding the arena-backed fib
// workload, a warm runtime must stay at (amortized) zero heap allocations
// per fork. Stealing acquires Scratch blocks on one slot and releases them
// on another; the releaser adopts each block onto its own free list, so
// every slot's list stays stocked and the acquirer does not fall back to
// the heap — this gate is the regression fence for that.

// gateCtx is the argument record of one gate-fib child; two of them plus
// the join frame fit in a single arena block.
type gateCtx struct {
	n   int
	res int64
}

const _ = uint(ScratchBytes - unsafe.Sizeof([2]gateCtx{}))

const gateFrameBytes = 128

// gateTask is the package-level trampoline carried by the fork: a static
// code pointer plus a *gateCtx, no closure.
func gateTask(w *W, p unsafe.Pointer) {
	c := (*gateCtx)(p)
	c.res = gateFib(w, c.n)
}

// gateFib is parfib on the ForkArg fast path: frame and both argument
// records live in one Scratch block (mirroring the bench package's fib).
func gateFib(w *W, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	s := w.AcquireScratch()
	pay := (*[2]gateCtx)(s.Ptr())
	pay[0].n = n - 1
	pay[1].n = n - 2
	fr := s.Frame()
	w.Init(fr)
	w.ForkArgSized(fr, gateFrameBytes, gateTask, unsafe.Pointer(&pay[0]))
	w.CallArgSized(gateFrameBytes, gateTask, unsafe.Pointer(&pay[1]))
	w.Join(fr)
	res := pay[0].res + pay[1].res
	w.ReleaseScratch(s)
	return res
}

// TestForkPathGate asserts the steal-heavy zero-allocation contract: after
// a warm-up run, a P=4 gate-fib run performs strictly fewer heap
// allocations than forks (0 allocs/op amortized), and stays under a budget
// that charges a constant per steal (thief goroutine + stack machinery)
// plus a small warm-path base — nothing on the fork path itself allocates:
// 64 base + 32/steal. The subtest is named for the one deque and the one
// victim rule.
func TestForkPathGate(t *testing.T) {
	const n = 24
	want := fibSerial(n)
	// On a 1-CPU host the thief goroutines barely get scheduled and the
	// gate degenerates to a steal-free run; oversubscribe the Go scheduler
	// so the P=4 workers genuinely interleave and steal.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	t.Run("the/random", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		var out int64
		rt.Run(func(w *W) { out = gateFib(w, n) }) // warm arenas, stacks, thieves
		st0 := rt.Stats()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rt.Run(func(w *W) { out = gateFib(w, n) })
		runtime.ReadMemStats(&m1)
		st1 := rt.Stats()
		if out != want {
			t.Fatalf("gateFib(%d) = %d, want %d", n, out, want)
		}
		ops := st1.Forks - st0.Forks
		steals := st1.Steals - st0.Steals
		got := int64(m1.Mallocs - m0.Mallocs)
		budget := 64 + 32*steals
		t.Logf("%d allocs over %d forks (%d steals), budget %d", got, ops, steals, budget)
		if got >= ops {
			t.Errorf("%d allocs >= %d forks: fork path is allocating per op", got, ops)
		}
		if got > budget {
			t.Errorf("%d allocs > budget %d (%d steals)", got, budget, steals)
		}
	})
}

// TestBaselineSpawnCost pins the cost model Figure 3 compares: the Cilk Plus
// and TBB baselines run the spawn prologue once per fork, TBB's sends one
// task object per fork to the heap, and Fibril's fork does neither. The
// prologue's state sits behind W.spawn, off the task record and off every
// other strategy's W, so nothing else would notice it going missing.
func TestBaselineSpawnCost(t *testing.T) {
	for _, tc := range []struct {
		strategy       Strategy
		prologue, heap bool
	}{
		{StrategyFibril, false, false},
		{StrategyCilkPlus, true, false},
		{StrategyTBB, true, true},
	} {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: 1, Strategy: tc.strategy})
			var perFork float64
			st := rt.Run(func(w *W) {
				var fr Frame
				var leaf gateCtx
				perFork = testing.AllocsPerRun(1000, func() {
					w.Init(&fr)
					w.ForkArg(&fr, gateTask, unsafe.Pointer(&leaf))
					w.Join(&fr)
				})
			})
			want := int64(0)
			if tc.prologue {
				want = st.Forks
			}
			if st.Forks == 0 || st.SpawnOverhead != want {
				t.Errorf("SpawnOverhead = %d over %d forks, want %d", st.SpawnOverhead, st.Forks, want)
			}
			if tc.heap && perFork < 1 || !tc.heap && perFork != 0 {
				t.Errorf("%v heap allocations per fork/join node; want >= 1 under tbb, 0 otherwise", perFork)
			}
		})
	}
}

// spinSink keeps the yardstick loop from being optimized away.
var spinSink atomic.Uint64

// yardstick times a fixed amount of plain serial work done by each of
// `goroutines` goroutines side by side. Two taking much longer than one
// means the host is not giving this process two CPUs — another package's
// tests have one, say — and a timing gate should decline to judge.
func yardstick(goroutines int) time.Duration {
	const spinSteps = 1 << 20
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s, x uint64
			for i := 0; i < spinSteps; i++ {
				x ^= next(&s)
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// TestForkScalesWithSecondWorker is the behavioural fence for the memory
// layout (DESIGN.md §7): a second worker must make one-shot fork/join
// faster, not slower. It compares medians of fresh-runtime gate-fib runs at
// Workers=2 and Workers=1 and asks for a ratio — the same on any host with
// two CPUs to run on — well short of the ideal 0.5 but far from the
// 1.1–1.3 that two slots' deques and worker structs sharing cache lines
// cost. Each runtime lands its objects somewhere new, so the median over
// fresh runtimes sees the whole distribution, not one lucky placement.
//
// Every round also times a yardstick — a fixed amount of plain serial work
// — alone and as two goroutines side by side. When the pair takes much longer than the single — another
// package's tests have a CPU, say — the host is not offering two CPUs and
// the test declines to judge rather than blame the layout.
func TestForkScalesWithSecondWorker(t *testing.T) {
	switch {
	case runtime.NumCPU() < 2:
		t.Skip("needs two CPUs")
	case testing.Short():
		t.Skip("timing gate; skipped with -short")
	case raceEnabled:
		t.Skip("timing gate; the race detector's instrumentation dominates the fork path")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const n, rounds = 23, 21
	want := fibSerial(n)
	oneShot := func(workers int) time.Duration {
		t0 := time.Now()
		var out int64
		NewRuntime(Config{Workers: workers}).Run(func(w *W) { out = gateFib(w, n) })
		d := time.Since(t0)
		if out != want {
			t.Fatalf("gateFib(%d) = %d at Workers=%d, want %d", n, out, workers, want)
		}
		return d
	}
	oneShot(1) // warm the code, the heap and the vm package's pages
	oneShot(2)
	var t1, t2, y1, y2 []time.Duration
	for i := 0; i < rounds; i++ { // interleaved, so drift hits all four alike
		y1 = append(y1, yardstick(1))
		t1 = append(t1, oneShot(1))
		y2 = append(y2, yardstick(2))
		t2 = append(t2, oneShot(2))
	}
	median := func(d []time.Duration) float64 {
		slices.Sort(d)
		return float64(d[len(d)/2])
	}
	host := median(y2) / median(y1)
	ratio := median(t2) / median(t1)
	t.Logf("medians of %d: one-shot fib(%d) Workers=1 %v, Workers=2 %v, ratio %.2f; "+
		"two plain goroutines take %.2fx one", rounds, n, t1[rounds/2], t2[rounds/2], ratio, host)
	if host > 1.2 {
		t.Skipf("two plain goroutines take %.2fx the time of one: the host is not giving this process two CPUs", host)
	}
	if ratio > 0.8 {
		t.Errorf("Workers=2 median is %.2fx the Workers=1 median, want <= 0.8: a second worker is not paying for itself", ratio)
	}
}

// TestForkCostInDequeUnits prices the whole fork/call/join node of gate-fib
// at Workers=1 — AcquireScratch, Init, ForkArg, CallArg, Join, ReleaseScratch
// and both simulated-stack frames — in units of the one thing it cannot do
// without: a Push+Pop pair on a bare deque of tasks, timed in the same
// process. The bare pair is an eager Push into an empty deque and the Pop of
// that public entry, so it pays the deque's two tail stores every time; the
// node pays neither — its push is lazy and its pop private (DESIGN.md §6) —
// and costs 1.6–1.7 pairs (46–48 ns against 28) now that one frame, Join's,
// stands between a parent's body and its inline child's. With six frames a
// level it cost 2.7, with the two tail stores inside it about 4, and with a
// shared read-modify-write per fork, per join and per counter on top of them
// 7–8. The unit makes the bound the same on a fast host and a slow one; a
// host that is holding a CPU back (see yardstick) is not judged.
func TestForkCostInDequeUnits(t *testing.T) {
	switch {
	case testing.Short():
		t.Skip("timing gate; skipped with -short")
	case raceEnabled:
		t.Skip("timing gate; the race detector's instrumentation dominates the fork path")
	}
	const n, rounds, pairs = 23, 5, 1 << 20
	want := fibSerial(n)
	rt := NewRuntime(Config{Workers: 1})
	perFork := func() float64 {
		var out int64
		before := rt.Stats().Forks
		t0 := time.Now()
		st := rt.Run(func(w *W) { out = gateFib(w, n) })
		d := time.Since(t0)
		if out != want {
			t.Fatalf("gateFib(%d) = %d, want %d", n, out, want)
		}
		return float64(d) / float64(st.Forks-before)
	}
	var d deque.Deque[task]
	perPair := func() float64 {
		t0 := time.Now()
		for i := 0; i < pairs; i++ {
			d.Push(task{})
			d.Pop()
		}
		return float64(time.Since(t0)) / pairs
	}
	perFork() // warm the arena, the stack's pages and the deque's ring
	perPair()
	var fork, pair []float64
	var y1, y2 []time.Duration
	for i := 0; i < rounds; i++ { // interleaved, so drift hits all four alike
		y1 = append(y1, yardstick(1))
		fork = append(fork, perFork())
		y2 = append(y2, yardstick(2))
		pair = append(pair, perPair())
	}
	slices.Sort(fork)
	slices.Sort(pair)
	slices.Sort(y1)
	slices.Sort(y2)
	host := float64(y2[rounds/2]) / float64(y1[rounds/2])
	units := fork[rounds/2] / pair[rounds/2]
	t.Logf("medians of %d: %.1f ns per fork/call/join node, %.1f ns per bare Push+Pop pair: %.1f pairs; "+
		"two plain goroutines take %.2fx one", rounds, fork[rounds/2], pair[rounds/2], units, host)
	if host > 1.2 {
		t.Skipf("two plain goroutines take %.2fx the time of one: the host is not giving this process two CPUs", host)
	}
	if units > 3 {
		t.Errorf("a fork/call/join node costs %.1f deque Push+Pop pairs, want <= 3: the owner's path is synchronizing again, or has grown its frames back", units)
	}
}

// TestScratchRecyclingUnderStealing asserts the arena's conservation laws
// under real concurrent stealing: acquires and releases balance, and
// adoption onto the releaser's list absorbs enough of the
// acquire-here/release-there traffic that drops to the GC stay a small
// fraction of the release flow. Two workloads at P=4: gate-fib, where a
// block changes slot only when its Join suspends and resumes on another
// slot; and a LazyFor at
// grain 1, whose split halves are acquired by the owner and released by
// whoever runs them, so a thief's list fills fastest there.
func TestScratchRecyclingUnderStealing(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	check := func(t *testing.T, st Stats) {
		if st.ArenaAcquires == 0 {
			t.Fatal("workload performed no arena acquires")
		}
		if st.ArenaAcquires != st.ArenaReleases {
			t.Errorf("ArenaAcquires=%d != ArenaReleases=%d", st.ArenaAcquires, st.ArenaReleases)
		}
		if st.ArenaDrops > st.ArenaReleases/4 {
			t.Errorf("ArenaDrops=%d > releases/4 (%d): the free lists are not absorbing steal traffic",
				st.ArenaDrops, st.ArenaReleases/4)
		}
		t.Logf("acquires=%d releases=%d drops=%d", st.ArenaAcquires, st.ArenaReleases, st.ArenaDrops)
	}
	t.Run("fib", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		var out int64
		rt.Run(func(w *W) { out = gateFib(w, 24) })
		rt.Run(func(w *W) { out = gateFib(w, 24) })
		if want := fibSerial(24); out != want {
			t.Fatalf("gateFib(24) = %d, want %d", out, want)
		}
		check(t, rt.Stats())
	})
	t.Run("lazyfor", func(t *testing.T) {
		const n, runs = 1 << 18, 20
		rt := NewRuntime(Config{Workers: 4})
		hits := make([]uint32, n)
		for r := 0; r < runs; r++ {
			rt.Run(func(w *W) {
				LazyFor(w, 0, n, 1, func(_ *W, i int) { hits[i]++ })
			})
		}
		for i, h := range hits {
			if h != runs {
				t.Fatalf("iteration %d ran %d times over %d runs", i, h, runs)
			}
		}
		check(t, rt.Stats())
	})
}

// TestArenaHoardCap drives both ReleaseScratch dispositions
// deterministically from a single worker: a release adopts the block onto
// the slot's free list while the list is under arenaHoardCap and drops it
// to the GC after, and the next round's acquires empty that list before
// they reach the heap.
func TestArenaHoardCap(t *testing.T) {
	const total = arenaHoardCap + 2
	rt := NewRuntime(Config{Workers: 2})
	rt.Run(func(w *W) {
		blocks := make([]*Scratch, total)
		for round := 0; round < 2; round++ {
			for i := range blocks {
				blocks[i] = w.AcquireScratch()
			}
			for _, s := range blocks {
				w.ReleaseScratch(s)
			}
		}
	})
	st := rt.Stats()
	if want := int64(2 * total); st.ArenaAcquires != want || st.ArenaReleases != want {
		t.Errorf("acquires=%d releases=%d, want both %d", st.ArenaAcquires, st.ArenaReleases, want)
	}
	// Per round: arenaHoardCap releases adopt, 2 drop.
	if want := int64(4); st.ArenaDrops != want {
		t.Errorf("ArenaDrops=%d, want %d", st.ArenaDrops, want)
	}
}

// scratchPool is the sync.Pool BenchmarkScratchRecycling prices the arena
// against.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// BenchmarkScratchRecycling prices Scratch recycling through the per-slot
// arena against a sync.Pool on one worker, nested as fib nests one block per
// level of its recursion: an op is depth acquires, then depth releases,
// innermost first. The pool leg clears what ReleaseScratch clears on a
// joined frame. The arena is kept while the pool costs more than 2 ns over
// it at depth 1 (EXPERIMENTS.md "Arena hand-back").
func BenchmarkScratchRecycling(b *testing.B) {
	for _, depth := range []int{1, 2} {
		b.Run(fmt.Sprintf("arena/depth=%d", depth), func(b *testing.B) {
			NewRuntime(Config{Workers: 1}).Run(func(w *W) {
				var held [2]*Scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for d := 0; d < depth; d++ {
						held[d] = w.AcquireScratch()
					}
					for d := depth - 1; d >= 0; d-- {
						w.ReleaseScratch(held[d])
					}
				}
			})
		})
		b.Run(fmt.Sprintf("pool/depth=%d", depth), func(b *testing.B) {
			NewRuntime(Config{Workers: 1}).Run(func(*W) {
				var held [2]*Scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for d := 0; d < depth; d++ {
						held[d] = scratchPool.Get().(*Scratch)
					}
					for d := depth - 1; d >= 0; d-- {
						held[d].frame.owner = nil
						scratchPool.Put(held[d])
					}
				}
			})
		})
	}
}
