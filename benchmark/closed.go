package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// serve_closed_tiny: a closed loop. Each client submits a fib(4) root,
// waits for it with Err, checks the value and submits the next. The job's
// own work is four forks, so the ~3us per job is the runtime's per-job
// overhead. One rep is closedJobsPerRep jobs on a serving runtime of its
// own (Start before the clock starts, Close and the conservation check
// after it stops), so a run samples many runtimes, not one. Handles are not Released: the
// pooled path can crash the process on this seed (see README), so it is
// measured only in the traced run's isolated lane.

// client is one closed-loop caller: its prebuilt root and result slot.
type client struct {
	root func(*core.W)
	got  uint64
	// Stamped by the root in a traced run.
	rootStart, rootEnd int64
	_                  [64]byte // keep neighbouring clients' slots apart
}

type closedState struct {
	e       env
	want    uint64
	clients []client
}

func setupClosed(e env) *closedState {
	spec, arg := bench.Get("fib"), bench.Arg{N: e.sz.closedFibN}
	s := &closedState{e: e, want: spec.Serial(arg), clients: make([]client, workers())}
	for i := range s.clients {
		c := &s.clients[i]
		c.root = func(w *core.W) {
			if e.traced {
				c.rootStart = now()
			}
			c.got = spec.Parallel(w, arg)
			if e.traced {
				c.rootEnd = now()
			}
		}
	}
	s.rep(e.sz.closedWarmJobs, -1) // warm-up
	return s
}

// closedRep is what one rep of the closed loop observed.
type closedRep struct {
	elapsed time.Duration
	lat     [][]int64 // per client: Submit call -> Err return, good jobs only
	bad     []int     // job indices (client-major) whose Err or value was wrong
	stamps  []jobStamps
	mallocs uint64
	bytes   uint64
	broken  string // Close's error, or a conservation law that did not hold after it
}

// rep runs jobs jobs split evenly over the clients. badJob (-1 for none)
// is the job whose expected value is corrupted.
func (s *closedState) rep(jobs, badJob int) closedRep {
	per := jobs / len(s.clients)
	out := closedRep{lat: make([][]int64, len(s.clients))}
	bad := make([][]int, len(s.clients))
	stamps := make([][]jobStamps, len(s.clients))
	for i := range out.lat {
		out.lat[i] = make([]int64, 0, per)
		if s.e.traced {
			stamps[i] = make([]jobStamps, 0, per)
		}
	}
	rt := core.NewRuntime(s.e.config())
	rt.Start()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &s.clients[ci]
			prev := now()
			for k := 0; k < per; k++ {
				c.got = ^uint64(0)
				j := rt.Submit(c.root)
				var submitted int64
				if s.e.traced {
					submitted = now()
				}
				err := j.Err()
				t := now()
				want := s.want
				if ci*per+k == badJob {
					want++
				}
				if err != nil || c.got != want {
					bad[ci] = append(bad[ci], ci*per+k)
				} else {
					out.lat[ci] = append(out.lat[ci], t-prev)
				}
				if s.e.traced {
					stamps[ci] = append(stamps[ci], jobStamps{prev, submitted, c.rootStart, c.rootEnd, t})
				}
				// The next job's Submit call starts where this one's Err
				// returned: one clock read per job.
				prev = t
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if err := rt.Close(context.Background()); err != nil {
		out.broken = "Close: " + err.Error()
	} else {
		out.broken = conserved(rt)
	}
	for ci := range bad {
		out.bad = append(out.bad, bad[ci]...)
		out.stamps = append(out.stamps, stamps[ci]...)
	}
	return out
}

func runClosed(e env) result {
	r := newResult("serve_closed_tiny")
	// Room for every sample of the run, allocated before the first set-up:
	// jobs are garbage once waited for, and with a live heap that only
	// grows as samples arrive the collector would run many times more often
	// in set-up and the first reps than in the last.
	lat := make([]int64, 0, int(e.seconds*1e6))
	// With that much live, the collector lets as much garbage again pile up
	// before its first cycle, all of it in memory the process has never
	// touched. Fill that headroom once now, so that no set-up or rep pays
	// the page faults of a growing heap.
	for filled := 0; filled < 8*cap(lat); filled += 1 << 20 {
		block := make([]byte, 1<<20)
		for i := 0; i < len(block); i += 4096 {
			block[i] = 1
		}
		runtime.KeepAlive(block)
	}
	s, setup := timedSetups(e, setupClosed)
	r.E2E["setup_s"] = setup

	jobs := e.sz.closedJobsPerRep / len(s.clients) * len(s.clients)
	var rates []float64
	var mallocs, bytes uint64
	var layers jobLayers
	for start := time.Now(); time.Since(start).Seconds() < e.seconds || len(rates) < 3; {
		badJob := -1
		if e.badOp >= 0 && e.badOp/jobs == len(rates) {
			badJob = e.badOp % jobs
		}
		rep := s.rep(jobs, badJob)
		for _, k := range rep.bad {
			r.fail(1, "rep %d job %d: wrong value or Err", len(rates), k)
		}
		r.Attempted += int64(jobs)
		if rep.broken != "" {
			r.fail(int64(jobs-len(rep.bad)), "rep %d: %s", len(rates), rep.broken)
		}
		rates = append(rates, float64(jobs)/rep.elapsed.Seconds())
		mallocs, bytes = mallocs+rep.mallocs, bytes+rep.bytes
		for _, l := range rep.lat {
			lat = append(lat, l...)
		}
		for i, st := range rep.stamps {
			layers.add(st)
			if len(rates) == 1 && i < e.sz.spanDump {
				r.Spans = append(r.Spans, st.spans(i, st.submit)...)
			}
		}
	}
	r.throughput(rates)
	r.latencyMetrics(lat, e.sz.closedSLO)

	n := float64(r.Attempted)
	r.Layer["core.intake.allocs_per_job"] = val(float64(mallocs)/n, "count", int(n))
	r.Layer["core.intake.bytes_per_job"] = val(float64(bytes)/n, "B", int(n))
	if e.traced {
		layers.report(&r)
	}
	return r
}
