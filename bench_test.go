// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (SPAA 2016, §5), built on the same code as
// cmd/fibril-bench. Custom metrics carry the non-time quantities the
// paper's tables report (steals, unmaps, page faults, stack pages).
//
//	go test -bench=. -benchmem            # everything, CI-scale inputs
//	go test -bench BenchmarkFig4 -benchtime 1x
package fibril_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fibril"
	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/deque"
	"fibril/internal/invoke"
	"fibril/internal/sim"
)

// benchArgs are fixed CI-scale inputs so benchmark numbers are comparable
// run to run.
func benchArg(s *bench.Spec) bench.Arg {
	switch s.Name {
	case "fib":
		return bench.Arg{N: 22}
	case "integrate":
		return bench.Arg{N: 50, M: 2}
	case "knapsack":
		return bench.Arg{N: 20}
	case "nqueens":
		return bench.Arg{N: 9}
	case "quicksort":
		return bench.Arg{N: 150_000}
	case "matmul", "lu", "cholesky", "rectmul":
		return bench.Arg{N: 128}
	case "strassen":
		return bench.Arg{N: 128}
	case "fft":
		return bench.Arg{N: 13}
	case "heat":
		return bench.Arg{N: 96, M: 10}
	case "adversarial":
		return bench.Arg{N: 32, M: 64}
	}
	return s.Default
}

// BenchmarkFig3 measures what Figure 3 plots: each runtime's single-worker
// execution of each benchmark (compare against the Serial sub-benchmarks
// to form Tserial/T1).
func BenchmarkFig3(b *testing.B) {
	strategies := []core.Strategy{
		core.StrategyFibril, core.StrategyCilkPlus, core.StrategyTBB,
	}
	for _, s := range bench.All() {
		if s.Name == "adversarial" {
			continue
		}
		a := benchArg(s)
		b.Run(s.Name+"/serial", func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += s.Serial(a)
			}
			_ = sink
		})
		for _, strat := range strategies {
			b.Run(s.Name+"/"+strat.String(), func(b *testing.B) {
				rt := core.NewRuntime(core.Config{
					Workers: 1, Strategy: strat, StackPages: 4096,
				})
				var sink uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.Run(func(w *core.W) { sink += s.Parallel(w, a) })
				}
				_ = sink
			})
		}
	}
}

// BenchmarkFig4 measures what Figure 4 plots: simulated execution across
// worker counts; the reported sim-speedup metric is T1work/Tp.
func BenchmarkFig4(b *testing.B) {
	for _, name := range []string{"fib", "nqueens", "quicksort", "heat", "matmul"} {
		s := bench.Get(name)
		a := benchArg(s)
		work := invoke.Analyze(s.Tree(a)).Work
		for _, p := range []int{1, 8, 32, 72} {
			for _, strat := range []core.Strategy{core.StrategyFibril, core.StrategyTBB} {
				b.Run(benchName(name, strat, p), func(b *testing.B) {
					var last sim.Result
					for i := 0; i < b.N; i++ {
						last = sim.Run(sim.Config{Workers: p, Strategy: strat}, s.Tree(a))
					}
					b.ReportMetric(float64(work)/float64(last.Makespan), "sim-speedup")
				})
			}
		}
	}
}

func benchName(n string, s core.Strategy, p int) string {
	return n + "/" + s.String() + "/p=" + itoa(p)
}

func itoa(p int) string {
	if p >= 10 {
		return string(rune('0'+p/10)) + string(rune('0'+p%10))
	}
	return string(rune('0' + p))
}

// BenchmarkTable2 regenerates Table 2's counters (steals, unmaps, page
// faults) as reported metrics.
func BenchmarkTable2(b *testing.B) {
	for _, name := range []string{"fib", "quicksort", "nqueens"} {
		s := bench.Get(name)
		a := benchArg(s)
		b.Run(name, func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run(sim.Config{Workers: 16, Strategy: core.StrategyFibril}, s.Tree(a))
			}
			b.ReportMetric(float64(last.Steals), "steals")
			b.ReportMetric(float64(last.Unmaps), "unmaps")
			b.ReportMetric(float64(last.VM.PageFaults), "faults")
		})
	}
}

// BenchmarkTable3 regenerates Table 3: S_P/P against the S1+D bound.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"fib", "quicksort", "strassen"} {
		s := bench.Get(name)
		a := benchArg(s)
		m := invoke.Analyze(s.Tree(a))
		b.Run(name, func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run(sim.Config{Workers: 16, Strategy: core.StrategyFibril}, s.Tree(a))
			}
			b.ReportMetric(last.MaxStackPagesPerWorker(), "pages/worker")
			b.ReportMetric(float64(m.FibrilDepth), "D")
		})
	}
}

// BenchmarkTable4 regenerates Table 4: stack RSS and stack counts.
func BenchmarkTable4(b *testing.B) {
	s := bench.Get("quicksort")
	a := benchArg(s)
	for _, strat := range []core.Strategy{core.StrategyFibril, core.StrategyFibrilNoUnmap} {
		b.Run(strat.String(), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{Workers: 16, Strategy: strat}
				last = sim.Run(cfg, s.Tree(a))
			}
			b.ReportMetric(float64(last.VM.MaxRSSPages), "rss-pages")
			b.ReportMetric(float64(last.StacksCreated), "stacks")
		})
	}
}

// BenchmarkAblationMMap measures the §4.3 design choice: madvise vs
// serialized mmap unmap at high steal rates.
func BenchmarkAblationMMap(b *testing.B) {
	s := bench.Get("fib")
	a := benchArg(s)
	for _, strat := range []core.Strategy{core.StrategyFibril, sim.StrategyFibrilMMap} {
		b.Run(sim.StrategyName(strat), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				last = sim.Run(sim.Config{Workers: 32, Strategy: strat}, s.Tree(a))
			}
			b.ReportMetric(float64(last.Makespan), "sim-Tp")
		})
	}
}

// BenchmarkAblationDepthRestricted measures the Sukha-direction gap on the
// adversarial workload.
func BenchmarkAblationDepthRestricted(b *testing.B) {
	s := bench.Adversarial
	a := benchArg(s)
	for _, strat := range []core.Strategy{
		core.StrategyFibril, core.StrategyTBB, sim.StrategyLeapfrog,
	} {
		b.Run(sim.StrategyName(strat), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{Workers: 16, Strategy: strat, StackPages: 2048}
				last = sim.Run(cfg, s.Tree(a))
			}
			b.ReportMetric(float64(last.Makespan), "sim-Tp")
		})
	}
}

// BenchmarkForkJoin is the microbenchmark behind Figure 3's story: the
// cost of one fork+join pair on the real runtime, per strategy.
func BenchmarkForkJoin(b *testing.B) {
	for _, strat := range []core.Strategy{
		core.StrategyFibril, core.StrategyCilkPlus, core.StrategyTBB,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			rt := core.NewRuntime(core.Config{Workers: 1, Strategy: strat})
			b.ResetTimer()
			rt.Run(func(w *core.W) {
				var fr core.Frame
				w.Init(&fr)
				for i := 0; i < b.N; i++ {
					w.Fork(&fr, func(*core.W) {})
					w.Join(&fr)
				}
			})
		})
	}
}

// BenchmarkForkJoinOverhead measures the per-strategy cost of one
// fork+join pair (Figure 3 spirit), so the fork fast path's cost stays
// visible. The forkarg lane runs the same loop through the zero-allocation
// (code pointer, argument pointer) fork and must report 0 allocs/op
// (TestForkPathGate enforces it).
func BenchmarkForkJoinOverhead(b *testing.B) {
	for _, strat := range []core.Strategy{
		core.StrategyFibril, core.StrategyCilkPlus, core.StrategyTBB,
	} {
		b.Run(strat.String(), func(b *testing.B) {
			rt := core.NewRuntime(core.Config{Workers: 1, Strategy: strat})
			b.ReportAllocs()
			b.ResetTimer()
			rt.Run(func(w *core.W) {
				var fr core.Frame
				w.Init(&fr)
				for i := 0; i < b.N; i++ {
					w.Fork(&fr, func(*core.W) {})
					w.Join(&fr)
				}
			})
		})
	}
	b.Run("forkarg", func(b *testing.B) {
		rt := core.NewRuntime(core.Config{Workers: 1})
		b.ReportAllocs()
		b.ResetTimer()
		rt.Run(func(w *core.W) {
			var fr core.Frame
			w.Init(&fr)
			for i := 0; i < b.N; i++ {
				w.ForkArg(&fr, nopArgTask, nil)
				w.Join(&fr)
			}
		})
	})
}

// BenchmarkStealThroughput measures pure steal throughput under thief
// contention: one producer fills the deque (untimed — Push cost is
// BenchmarkForkJoinOverhead's job), then P thieves race to drain it and
// only the drain is timed — every thief serializes on the THE deque's
// mutex. Runs at GOMAXPROCS>=4 so thief contention is real even on small
// hosts.
func BenchmarkStealThroughput(b *testing.B) {
	const thieves = 4
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	d := &deque.Deque[int]{}
	for i := 0; i < b.N; i++ {
		d.Push(i)
	}
	var consumed atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				if _, ok := d.Steal(); ok {
					consumed.Add(1)
					continue
				}
				if consumed.Load() >= int64(b.N) {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
}

// BenchmarkPublicAPI exercises the exported package the way the quickstart
// does, so API-level overhead is tracked too.
func BenchmarkPublicAPI(b *testing.B) {
	rt := fibril.New(fibril.Config{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	rt.Run(func(w *fibril.W) {
		var fr fibril.Frame
		w.Init(&fr)
		for i := 0; i < b.N; i++ {
			w.Fork(&fr, func(*fibril.W) {})
			w.Join(&fr)
		}
	})
}
