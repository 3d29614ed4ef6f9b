package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fibril/internal/bench"
	"fibril/internal/core"
	"fibril/internal/deque"
	"fibril/internal/sim"
	"fibril/internal/stack"
	"fibril/internal/trace"
	"fibril/internal/vm"
)

// The traced run. It measures every layer from outside: short untraced and
// traced slices of the four workloads (the traced slice attaches a
// MetricsSink and stamps spans; the difference between the two is the
// tracing overhead), and lanes that time direct calls into one layer's
// public functions. Nothing here feeds an end-to-end metric.

func runLayers(e env) result {
	r := newResult("layers")
	e.sz.setups = 1

	// slice runs one workload for share of the run's seconds, and folds
	// its operations into the traced run's own count.
	slice := func(w workloadSpec, share float64, traced bool) result {
		se := e
		se.seconds, se.traced = e.seconds*share, traced
		res := w.run(se)
		r.Attempted += res.Attempted
		r.Failed += res.Failed
		r.Errors = append(r.Errors, res.Errors...)
		if traced {
			if err := dumpSpans(e.spanDir, w.Name, res.Spans); err != nil {
				r.fail(0, "span dump: %v", err)
			}
		}
		return res
	}
	take := func(from result, names ...string) {
		for _, n := range names {
			if v, ok := from.Layer[n]; ok {
				r.Layer[n] = v
			}
		}
	}
	// overhead is how much worse the traced slice's metric is, in percent
	// of the untraced one.
	overhead := func(name, metric string, plain, traced result) {
		p, t := plain.E2E[metric], traced.E2E[metric]
		if p.Value == 0 {
			return
		}
		pct := (p.Value - t.Value) / p.Value * 100
		if metric == "lat_p50_us" { // lower is better
			pct = -pct
		}
		r.Layer["trace.overhead_pct."+name] = val(pct, "%", min(p.N, t.N))
	}

	sz := e.sz
	fibW, fanW, closedW, openW := workloads[0], workloads[1], workloads[2], workloads[3]
	fib, fibT := slice(fibW, sz.sliceFib, false), slice(fibW, sz.sliceFib, true)
	overhead("batch_fib", "ops_per_s", fib, fibT)

	fan, fanT := slice(fanW, sz.sliceFanout, false), slice(fanW, sz.sliceFanout, true)
	overhead("batch_fanout", "ops_per_s", fan, fanT)
	take(fan, "core.steal.steals_per_round", "core.steal.success_ratio", "core.suspend.suspends_per_round",
		"stack.pool.stacks_created", "stack.pool.max_in_use",
		"vm.unmapped_pages_per_round", "vm.page_faults_per_round", "vm.peak_rss_pages")
	take(fanT, "core.steal.fork_to_remote_start_ns", "core.resume.join_tail_ns")

	cl, clT := slice(closedW, sz.sliceClosed, false), slice(closedW, sz.sliceClosed, true)
	overhead("serve_closed_tiny", "ops_per_s", cl, clT)
	take(cl, "core.intake.allocs_per_job", "core.intake.bytes_per_job")
	take(clT, "core.intake.submit_ns", "core.complete.wake_ns")

	op, opT := slice(openW, sz.sliceOpen, false), slice(openW, sz.sliceOpenTraced, true)
	overhead("serve_open_mix", "lat_p50_us", op, opT)
	take(op, "serve.gen_lag_p99_us", "serve.gen_lag_max_us", "serve.lat_p99_us", "serve.lat_p999_us")
	take(opT, "core.dispatch.wait_ns", "core.run.root_ns")

	e.forkLanes(&r, fib.E2E["lat_p50_us"].Value*1e3)
	e.idleWakeLane(&r)
	e.dequeLanes(&r)
	e.stackLanes(&r)
	e.vmLanes(&r)
	e.traceLane(&r)
	e.simLane(&r)
	return r
}

// dumpSpans writes one workload's spans, kept in memory until now, as a
// JSON array.
func dumpSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), b, 0o644)
}

// lane times body over laneIters/scale iterations, laneBatches times, and
// returns the median nanoseconds per iteration. body returns how long its
// timed part took, so a lane can keep its refills out of the time; scale
// shortens lanes whose iteration is heavy.
func (e env) lane(scale int, body func(iters int) time.Duration) value {
	iters := max(e.sz.laneIters/scale, 1)
	per := make([]float64, e.sz.laneBatches)
	for i := range per {
		per[i] = float64(body(iters)) / float64(iters)
	}
	return val(median(per), "ns", e.sz.laneBatches*iters)
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// forkLanes price the owner path at Workers=1, where nothing can be
// stolen: (T1 - Tserial)/forks is what fork+join add to a serial call.
// tpNs is the same fib's median rep time at Workers=P, from the slice.
func (e env) forkLanes(r *result, tpNs float64) {
	spec, arg := bench.Get("fib"), bench.Arg{N: e.sz.fibN}
	rt := core.NewRuntime(core.Config{Workers: 1})
	run := func() (time.Duration, int64) {
		var st core.Stats
		before := rt.Stats().Forks
		dt := timed(func() { st = rt.Run(func(w *core.W) { spec.Parallel(w, arg) }) })
		return dt, st.Forks - before
	}
	run() // warm-up
	var serial, t1 []float64
	var forks int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range 3 {
		dt, f := run()
		t1, forks = append(t1, float64(dt)), forks+f
	}
	runtime.ReadMemStats(&m1)
	for range 3 {
		serial = append(serial, float64(timed(func() { spec.Serial(arg) })))
	}
	perRep := float64(forks) / 3
	r.Layer["core.fork.ns_per_fork_p1"] = val((median(t1)-median(serial))/perRep, "ns", int(forks))
	r.Layer["core.fork.allocs_per_fork"] = val(float64(m1.Mallocs-m0.Mallocs)/float64(forks), "count", int(forks))
	r.Layer["core.fork.tp_over_t1"] = val(tpNs/median(t1), "ratio", 3)

	var arena value
	rt.Run(func(w *core.W) {
		arena = e.lane(1, func(n int) time.Duration {
			return timed(func() {
				for range n {
					w.ReleaseScratch(w.AcquireScratch())
				}
			})
		})
	})
	r.Layer["core.arena.acquire_release_ns"] = arena
}

// idleWakeLane submits a noop job into a runtime whose workers have all
// parked, and times Submit entry to the root's first line.
func (e env) idleWakeLane(r *result) {
	rt := core.NewRuntime(core.Config{Workers: workers()})
	rt.Start()
	var started int64
	root := func(*core.W) { started = now() }
	wakes := make([]int64, e.sz.idleWakes)
	for i := range wakes {
		time.Sleep(time.Millisecond)
		t0 := now()
		r.Attempted++
		if err := rt.Submit(root).Err(); err != nil {
			r.fail(1, "idle-wake lane: %v", err)
		}
		wakes[i] = started - t0
	}
	if err := rt.Close(context.Background()); err != nil {
		r.fail(r.Attempted-r.Failed, "idle-wake lane: Close: %v", err)
	}
	r.Layer["core.dispatch.idle_wake_ns"] = p50ns(wakes)
}

func (e env) dequeLanes(r *result) {
	var d deque.Deque[int]
	pushPop := func(n int) time.Duration {
		return timed(func() {
			for i := range n {
				d.Push(i)
				d.Pop()
			}
		})
	}
	r.Layer["deque.push_pop_ns"] = e.lane(1, pushPop)
	r.Layer["deque.steal_ns"] = e.lane(1, func(n int) time.Duration {
		for i := range n {
			d.Push(i)
		}
		return timed(func() {
			for range n {
				d.Steal()
			}
		})
	})
	// The owner's same loop while another goroutine probes and steals, as
	// a thief does to a busy worker.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			d.Steal()
		}
	}()
	r.Layer["deque.push_pop_contended_ns"] = e.lane(1, pushPop)
	stop.Store(true)
	wg.Wait()
}

func (e env) stackLanes(r *result) {
	as := vm.NewAddressSpace()
	pool := stack.NewShardedPool(as, stack.DefaultStackPages, 0, 2)
	takePut := func(putShard int) func(int) time.Duration {
		return func(n int) time.Duration {
			return timed(func() {
				for range n {
					s, err := pool.Take(0)
					if err != nil {
						panic(err)
					}
					pool.Put(putShard, s)
				}
			})
		}
	}
	r.Layer["stack.pool.take_put_ns"] = e.lane(1, takePut(0))
	r.Layer["stack.pool.take_put_cross_ns"] = e.lane(1, takePut(1))

	st, err := stack.New(as, stack.DefaultStackPages, 0)
	if err != nil {
		panic(err)
	}
	r.Layer["stack.frame.push_pop_ns"] = e.lane(1, func(n int) time.Duration {
		return timed(func() {
			for range n {
				base, _ := st.Push(96)
				st.Pop(base)
			}
		})
	})
	// What a suspend and its resume do to a stack: above a live prefix,
	// the joiner's 8 dirty pages go back at the watermark and fault in
	// again on reuse.
	if _, err := st.Push(5000); err != nil {
		panic(err)
	}
	r.Layer["stack.suspend_resume_ns"] = e.lane(16, func(n int) time.Duration {
		return timed(func() {
			for range n {
				base, _ := st.Push(e.sz.fanoutDirty)
				st.Pop(base)
				st.SetWatermark(base)
				st.UnmapAbove()
				st.RemapAbove()
			}
			base, _ := st.Push(e.sz.fanoutDirty) // the last re-touch
			st.Pop(base)
		})
	})
}

func (e env) vmLanes(r *result) {
	const pages = 256
	as := vm.NewAddressSpace()
	reg, err := as.MMap(pages)
	if err != nil {
		panic(err)
	}
	perPage := func(v value) value { return val(v.Value/pages, "ns", v.N*pages) }
	r.Layer["vm.fault_ns_per_page"] = perPage(e.lane(pages, func(n int) time.Duration {
		var d time.Duration
		for range n {
			d += timed(func() { reg.TouchRange(0, pages) })
			reg.Madvise(0, pages)
		}
		return d
	}))
	r.Layer["vm.madvise_ns_per_page"] = perPage(e.lane(pages, func(n int) time.Duration {
		var d time.Duration
		for range n {
			reg.TouchRange(0, pages)
			d += timed(func() { reg.Madvise(0, pages) })
		}
		return d
	}))
	r.Layer["vm.mmap_ns"] = e.lane(pages, func(n int) time.Duration {
		return timed(func() {
			for range n {
				m, err := as.MMap(pages)
				if err != nil {
					panic(err)
				}
				m.MUnmap()
			}
		})
	})
}

func (e env) traceLane(r *result) {
	tr := trace.NewTracer(trace.NewMetricsSink(), 1)
	r.Layer["trace.emit_ns"] = e.lane(1, func(n int) time.Duration {
		return timed(func() {
			for i := range n {
				tr.Emit(0, trace.KindSteal, int64(i), 100)
			}
		})
	})
}

// simLane runs the discrete-event simulator on fib at the paper's P=72:
// the makespan is the predicted counterpart of the measured batch time and
// repeats exactly; tasks per wall second is the simulator's own speed.
func (e env) simLane(r *result) {
	tree := bench.Get("fib").Tree(bench.Arg{N: e.sz.simFibN})
	var res sim.Result
	dt := timed(func() { res = sim.Run(sim.Config{Workers: 72}, tree) })
	r.Layer["sim.tasks_per_s"] = val(float64(res.Tasks)/dt.Seconds(), "1/s", int(res.Tasks))
	r.Layer["sim.makespan_p72"] = val(float64(res.Makespan), "count", 1)
}

// runPooled is the Submit -> Err -> Release lane. Release recycles the
// handle while finish() may still be touching it, which can crash the
// process (see README), so the lane is small and runs in a process of its
// own.
func runPooled(e env) result {
	r := newResult("pooled")
	spec, arg := bench.Get("fib"), bench.Arg{N: e.sz.closedFibN}
	want := spec.Serial(arg)
	rt := core.NewRuntime(core.Config{Workers: workers()})
	rt.Start()
	var got uint64
	root := func(w *core.W) { got = spec.Parallel(w, arg) }
	dt := timed(func() {
		for range e.sz.pooledJobs {
			j := rt.Submit(root)
			err := j.Err()
			j.Release()
			r.Attempted++
			if err != nil || got != want {
				r.fail(1, "pooled job: got %d err %v, want %d", got, err, want)
			}
		}
	})
	if err := rt.Close(context.Background()); err != nil {
		r.fail(r.Attempted-r.Failed, "Close: %v", err)
	}
	r.Layer["core.intake.pooled_job_ns"] = val(float64(dt)/float64(e.sz.pooledJobs), "ns", e.sz.pooledJobs)
	return r
}
