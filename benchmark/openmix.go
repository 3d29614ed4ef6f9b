package main

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// serve_open_mix: an open loop. Requests arrive on a seeded Poisson
// schedule whatever the runtime is doing; each is submitted when due and
// handed to a waiter goroutine that blocks in Err — the shape of an HTTP
// handler. Latency runs from the due time, so a generator or runtime
// stall is charged to the requests that were due during it. The mix is
// internal/serve's (fib 16, nqueens 7, integrate 8/2, a 3-stage request
// graph), re-implemented here so every request's result can be checked.
// One rep is openReqsPerRep arrivals served by a runtime of its own, so a
// run samples many runtimes; the schedule pauses only while one runtime
// is closed and the next started.

// shape is one request type: a parallel body and its serial twin.
type shape struct {
	name     string
	parallel func(w *core.W, rng uint64) uint64
	serial   func(rng uint64) uint64
}

func benchShape(name string, a bench.Arg) shape {
	s := bench.Get(name)
	return shape{name,
		func(w *core.W, _ uint64) uint64 { return s.Parallel(w, a) },
		func(uint64) uint64 { return s.Serial(a) }}
}

var shapes = []shape{
	benchShape("fib", bench.Arg{N: 16}),
	benchShape("nqueens", bench.Arg{N: 7}),
	benchShape("integrate", bench.Arg{N: 8, M: 2}),
	{"reqgraph", reqGraph, reqGraphSerial},
}

// reqGraph is a fan-out RPC handler's skeleton: three sequential stages,
// each forking 2-4 sub-requests of seeded length and joining them.
func reqGraph(w *core.W, rng uint64) uint64 {
	var sum uint64
	for stage := 0; stage < 3; stage++ {
		fan := graphFan(rng, stage)
		var f core.Frame
		var out [4]uint64
		w.Init(&f)
		for i := 0; i < fan; i++ {
			leafRng := splitmix(rng + uint64(stage*16+i))
			w.Fork(&f, func(w *core.W) { out[i] = graphLeaf(w, leafRng) })
		}
		w.Join(&f)
		for _, v := range out[:fan] {
			sum += v
		}
		rng = splitmix(rng)
	}
	return sum
}

func graphFan(rng uint64, stage int) int { return 2 + int(rng>>uint(8*stage))%3 }

// graphLeaf is one sub-request: a short spin, with a nested fork pair on
// one leaf in eight so sub-requests expose stealable work too.
func graphLeaf(w *core.W, rng uint64) uint64 {
	steps := graphSteps(rng)
	if rng&7 != 0 {
		return spin(rng, steps)
	}
	var f core.Frame
	var a uint64
	w.Init(&f)
	w.Fork(&f, func(*core.W) { a = spin(rng, steps) })
	b := spin(^rng, steps/2)
	w.Join(&f)
	return a + b
}

func graphSteps(rng uint64) uint32 { return 16 * (200 + uint32(rng%1800)) }

func reqGraphSerial(rng uint64) uint64 {
	var sum uint64
	for stage := 0; stage < 3; stage++ {
		for i := 0; i < graphFan(rng, stage); i++ {
			leafRng := splitmix(rng + uint64(stage*16+i))
			sum += spin(leafRng, graphSteps(leafRng))
			if leafRng&7 == 0 {
				sum += spin(^leafRng, graphSteps(leafRng)/2)
			}
		}
		rng = splitmix(rng)
	}
	return sum
}

// clock is the time source the open loop paces itself by; tests
// substitute a fake to stall it.
type clock interface {
	Now() int64 // nanoseconds since the loop's epoch
	Sleep(ns int64)
	Yield()
}

type realClock struct{}

func (realClock) Now() int64     { return now() }
func (realClock) Sleep(ns int64) { time.Sleep(time.Duration(ns)) }
func (realClock) Yield()         { runtime.Gosched() }

// sleepSlack is how close to a due time the generator lets itself sleep;
// inside it, it yields until the time has come.
const sleepSlack = int64(100 * time.Microsecond)

// pace walks an ascending arrival schedule: it waits for the next due
// time, then submits every request that has become due — also those whose
// time passed while it was stalled. It never skips or delays the schedule
// itself, which is what makes the loop open.
func pace(clk clock, due []int64, submit func(i int)) {
	for i := 0; i < len(due); {
		wait := due[i] - clk.Now()
		switch {
		case wait > sleepSlack:
			clk.Sleep(wait - sleepSlack)
		case wait > 0:
			clk.Yield()
		default:
			submit(i)
			i++
		}
	}
}

// request is one generated arrival.
type request struct {
	shape int
	rng   uint64
	gap   int64 // nanoseconds after the previous arrival
	want  uint64
}

type openState struct {
	e    env
	reqs []request // warm-up requests first, then the measured ones
}

func setupOpen(e env) *openState {
	n := e.sz.openWarmReqs + int(e.sz.openRate*e.seconds)
	s := &openState{e: e, reqs: make([]request, n)}
	// A pool of distinct request-graph inputs, so every request has a
	// serial reference without recomputing one per arrival.
	graphs := make([]uint64, e.sz.openGraphs)
	rng := e.seed
	for i := range graphs {
		rng = splitmix(rng)
		graphs[i] = rng
	}
	want := map[[2]uint64]uint64{}
	for i := range s.reqs {
		rng = splitmix(rng)
		q := &s.reqs[i]
		q.shape = int(rng % uint64(len(shapes)))
		if shapes[q.shape].name == "reqgraph" {
			q.rng = graphs[(rng>>8)%uint64(len(graphs))]
		}
		key := [2]uint64{uint64(q.shape), q.rng}
		if _, ok := want[key]; !ok {
			want[key] = shapes[q.shape].serial(q.rng)
		}
		q.want = want[key]
		// Exponential gap with mean 1/rate: Poisson arrivals.
		u := (float64(rng>>11) + 0.5) / (1 << 53)
		q.gap = int64(-math.Log(u) / e.sz.openRate * 1e9)
	}
	s.fire(s.reqs[:e.sz.openWarmReqs]) // warm-up
	return s
}

// openObs is what the loop observed of one request; all times are
// nanoseconds since the process epoch.
type openObs struct {
	due int64
	st  jobStamps
	got uint64
	err error
}

// fire serves reqs, arriving on their schedule, with a fresh runtime, and
// returns what it observed of each and any law broken at Close.
func (s *openState) fire(reqs []request) (obs []openObs, broken string) {
	rt := core.NewRuntime(s.e.config())
	rt.Start()
	obs = make([]openObs, len(reqs))
	due := make([]int64, len(reqs))
	t := now() + int64(time.Millisecond)
	for i, q := range reqs {
		t += q.gap
		due[i] = t
		obs[i].due = t
	}
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	pace(realClock{}, due, func(i int) {
		o, q := &obs[i], reqs[i]
		body := shapes[q.shape].parallel
		o.st.submit = now()
		j := rt.Submit(func(w *core.W) {
			if s.e.traced {
				o.st.rootStart = now()
			}
			o.got = body(w, q.rng)
			if s.e.traced {
				o.st.rootEnd = now()
			}
		})
		o.st.submitted = now()
		go func() {
			defer wg.Done()
			o.err = j.Err()
			o.st.done = now()
		}()
	})
	wg.Wait()
	if err := rt.Close(context.Background()); err != nil {
		return obs, "Close: " + err.Error()
	}
	return obs, conserved(rt)
}

func runOpen(e env) result {
	r := newResult("serve_open_mix")
	s, setup := timedSetups(e, setupOpen)
	r.E2E["setup_s"] = setup

	var lat, lag []int64
	var layers jobLayers
	var served, done float64 // seconds of schedule served, requests completed in them
	for all := s.reqs[e.sz.openWarmReqs:]; len(all) > 0; {
		reqs := all[:min(e.sz.openReqsPerRep, len(all))]
		all = all[len(reqs):]
		obs, broken := s.fire(reqs)
		first, lastDone, good := obs[0].due, int64(0), 0
		for i, o := range obs {
			op := int(r.Attempted)
			r.Attempted++
			want := reqs[i].want
			if op == e.badOp {
				want++
			}
			lag = append(lag, o.st.submit-o.due)
			lastDone = max(lastDone, o.st.done)
			switch {
			case o.err != nil || o.got != want:
				r.fail(1, "request %d (%s): got %#x err %v, want %#x", op, shapes[reqs[i].shape].name, o.got, o.err, want)
				continue
			case broken != "":
				r.fail(1, "request %d: %s", op, broken)
				continue
			}
			good++
			lat = append(lat, o.st.done-o.due)
			if e.traced {
				layers.add(o.st)
				if op < e.sz.spanDump {
					r.Spans = append(r.Spans, o.st.spans(op, o.due)...)
				}
			}
		}
		served, done = served+float64(lastDone-first)/1e9, done+float64(good)
	}
	// Completed requests per second of the schedule's span: the offered
	// rate, unless a backlog was still draining at the end.
	r.E2E["ops_per_s"] = val(done/served, "1/s", len(lat))
	r.latencyMetrics(lat, e.sz.openSLO)

	// Harness numbers: how late the generator ran and the tail the sample
	// supports. Reported, never gated.
	tail := func(sorted []int64, p float64) value {
		v := val(float64(percentile(sorted, p))/1e3, "us", len(sorted))
		if beyond(len(sorted), p) < 10 {
			v.Note = "fewer than 10 samples beyond it"
		}
		return v
	}
	slices.Sort(lag)
	r.Layer["serve.gen_lag_p99_us"] = tail(lag, 99)
	r.Layer["serve.gen_lag_max_us"] = val(float64(lag[len(lag)-1])/1e3, "us", len(lag))
	if len(lat) > 0 { // latencyMetrics sorted lat
		r.Layer["serve.lat_p99_us"] = tail(lat, 99)
		r.Layer["serve.lat_p999_us"] = tail(lat, 99.9)
	}
	if e.traced {
		layers.report(&r)
	}
	return r
}
