package main

import (
	"time"

	"fibril/internal/bench"
	"fibril/internal/core"
)

// batch_fib: the one-shot batch shape. One operation is NewRuntime + Run
// of fib(N) — what a batch caller waits for — and is nothing but forks on
// the deque owner path.
//
// How fast one Run goes depends on where that Run's worker goroutines and
// their W contexts happened to be allocated (a second worker can halve the
// time or nearly double it; see README, known baselines), so single Runs
// are spread over a wide, two-humped range. A rep is therefore a block of
// fibRunsPerRep one-shot operations, ops_per_s is the median over reps of
// a block's forks per second, and the latency percentiles are taken over
// all the Run calls of the run.

type fibState struct {
	e    env
	spec *bench.Spec
	arg  bench.Arg
	want uint64
}

func setupFib(e env) *fibState {
	s := &fibState{e: e, spec: bench.Get("fib"), arg: bench.Arg{N: e.sz.fibN}}
	s.want = s.spec.Serial(s.arg)
	for range e.sz.fibRunsPerRep { // warm-up: one rep
		s.one()
	}
	return s
}

// fibOp is what one operation observed.
type fibOp struct {
	start, end         int64 // the NewRuntime + Run call
	rootStart, rootEnd int64 // stamped by the root itself in a traced run
	forks              int64
	got                uint64
	broken             string // a conservation law that did not hold after Run
}

func (s *fibState) one() fibOp {
	var o fibOp
	o.start = now()
	rt := core.NewRuntime(s.e.config())
	st := rt.Run(func(w *core.W) {
		if s.e.traced {
			o.rootStart = now()
		}
		o.got = s.spec.Parallel(w, s.arg)
		if s.e.traced {
			o.rootEnd = now()
		}
	})
	o.end = now()
	o.forks, o.broken = st.Forks, conserved(rt)
	return o
}

func runFib(e env) result {
	r := newResult("batch_fib")
	s, setup := timedSetups(e, setupFib)
	r.E2E["setup_s"] = setup

	var lat []int64
	var rates []float64
	for start := time.Now(); time.Since(start).Seconds() < e.seconds || len(rates) < 3; {
		var forks, ns int64
		for range e.sz.fibRunsPerRep {
			op := int(r.Attempted)
			o := s.one()
			r.Attempted++
			if e.traced && op < e.sz.spanDump {
				r.Spans = append(r.Spans,
					span{Op: op, Name: "run", Start: o.start, End: o.end},
					span{Op: op, Name: "core.run.root", Parent: "run", Start: o.rootStart, End: o.rootEnd})
			}
			want := s.want
			if op == e.badOp {
				want++
			}
			switch {
			case o.got != want:
				r.fail(1, "run %d: fib(%d) = %d, want %d", op, s.arg.N, o.got, want)
			case o.broken != "":
				r.fail(1, "run %d: %s", op, o.broken)
			default:
				lat = append(lat, o.end-o.start)
			}
			forks, ns = forks+o.forks, ns+o.end-o.start
		}
		rates = append(rates, float64(forks)/(float64(ns)/1e9))
	}
	r.throughput(rates)
	r.latencyMetrics(lat, e.sz.fibSLO)
	return r
}
