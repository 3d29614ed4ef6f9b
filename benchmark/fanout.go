package main

import (
	"time"
	"unsafe"

	"fibril/internal/core"
)

// batch_fanout: one root dives a few 4 KB frames, then round after round
// dirties pages above its frame, forks a row of short seeded leaves and
// joins. The owner path is negligible; every round needs a steal, usually
// a suspend (madvise + refault on resume), a pool stack and a thief
// wake-up. One rep is one Run of fanoutRounds rounds on a runtime of its
// own; the operation is the round.

// leaf is one forked child's argument record and result slot.
type leaf struct {
	seed  uint64
	steps uint32
	out   uint64
	// Stamped by the leaf itself in a traced run.
	stamp      bool
	start, end int64
	stack      int
}

func leafTask(w *core.W, p unsafe.Pointer) {
	l := (*leaf)(p)
	if l.stamp {
		l.start, l.stack = now(), w.StackID()
	}
	l.out = spin(l.seed, l.steps)
	if l.stamp {
		l.end = now()
	}
}

// spin is the leaf's work: steps rounds of xorshift64 from seed.
func spin(seed uint64, steps uint32) uint64 {
	x := seed | 1
	for ; steps > 0; steps-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type fanoutState struct {
	e     env
	seeds []uint64 // rounds*leaves leaf inputs
	steps []uint32
	want  []uint64 // per-round sum of leaf outputs, computed serially

	// Per-rep outputs, written by the root.
	got      []uint64 // per-round sums
	roundNs  []int64  // first fork -> Join return
	remoteNs []int64  // traced: first fork -> first leaf start on another stack
	tailNs   []int64  // traced: last leaf end -> Join return
	spans    []span   // traced: the first spanDump rounds of the rep
}

func setupFanout(e env) *fanoutState {
	n := e.sz.fanoutRounds * e.sz.fanoutLeaves
	s := &fanoutState{e: e, seeds: make([]uint64, n), steps: make([]uint32, n),
		want: make([]uint64, e.sz.fanoutRounds), got: make([]uint64, e.sz.fanoutRounds)}
	rng := e.seed
	for i := range s.seeds {
		rng = splitmix(rng)
		s.seeds[i] = rng
		// Mean fanoutSteps, drawn uniformly from +-50%.
		s.steps[i] = uint32(e.sz.fanoutSteps/2) + uint32(rng>>32)%uint32(e.sz.fanoutSteps+1)
	}
	for r := range s.want {
		for i := r * e.sz.fanoutLeaves; i < (r+1)*e.sz.fanoutLeaves; i++ {
			s.want[r] += spin(s.seeds[i], s.steps[i])
		}
	}
	s.rep() // warm-up
	return s
}

// rep runs all rounds once under one Run on a fresh runtime and returns
// the Run's duration, the runtime's counters after it and any conservation
// law it broke.
func (s *fanoutState) rep() (time.Duration, core.Stats, string) {
	s.roundNs, s.remoteNs, s.tailNs, s.spans = s.roundNs[:0], s.remoteNs[:0], s.tailNs[:0], s.spans[:0]
	rt := core.NewRuntime(s.e.config())
	t0 := time.Now()
	st := rt.Run(func(w *core.W) { s.dive(w, s.e.sz.fanoutDive) })
	return time.Since(t0), st, conserved(rt)
}

// dive puts depth 4 KB frames under the forking frame, so a suspended
// root keeps a real prefix resident and only the pages above it go back.
func (s *fanoutState) dive(w *core.W, depth int) {
	if depth > 0 {
		w.CallSized(4096, func(w *core.W) { s.dive(w, depth-1) })
		return
	}
	s.rounds(w)
}

func noop(*core.W) {}

func (s *fanoutState) rounds(w *core.W) {
	sz := s.e.sz
	leaves := make([]leaf, sz.fanoutLeaves)
	for i := range leaves {
		leaves[i].stamp = s.e.traced
	}
	var f core.Frame
	home := w.StackID()
	for r := 0; r < sz.fanoutRounds; r++ {
		// Dirty the pages a suspend will give back and a resume refault.
		w.CallSized(sz.fanoutDirty, noop)
		base := r * sz.fanoutLeaves
		t0 := now()
		w.Init(&f)
		for i := range leaves {
			leaves[i].seed, leaves[i].steps = s.seeds[base+i], s.steps[base+i]
			w.ForkArg(&f, leafTask, unsafe.Pointer(&leaves[i]))
		}
		w.Join(&f)
		t1 := now()
		var sum uint64
		for i := range leaves {
			sum += leaves[i].out
		}
		s.got[r] = sum
		s.roundNs = append(s.roundNs, t1-t0)
		if s.e.traced {
			s.stampRound(r, home, t0, t1, leaves)
		}
	}
}

// stampRound turns the leaves' own stamps into the two waits on a round's
// critical path, and keeps the round's spans for the dump.
func (s *fanoutState) stampRound(r, home int, t0, t1 int64, leaves []leaf) {
	firstRemote, lastEnd := int64(-1), int64(0)
	for i := range leaves {
		l := &leaves[i]
		if l.stack != home && (firstRemote < 0 || l.start < firstRemote) {
			firstRemote = l.start
		}
		lastEnd = max(lastEnd, l.end)
	}
	if firstRemote >= 0 {
		s.remoteNs = append(s.remoteNs, firstRemote-t0)
	}
	s.tailNs = append(s.tailNs, t1-lastEnd)
	if r >= s.e.sz.spanDump {
		return
	}
	s.spans = append(s.spans, span{Op: r, Name: "round", Start: t0, End: t1})
	if firstRemote >= 0 {
		s.spans = append(s.spans, span{Op: r, Name: "core.steal.fork_to_remote_start", Parent: "round", Start: t0, End: firstRemote})
	}
	for i := range leaves {
		name := "leaf.local"
		if leaves[i].stack != home {
			name = "leaf.remote"
		}
		s.spans = append(s.spans, span{Op: r, Name: name, Parent: "round", Start: leaves[i].start, End: leaves[i].end})
	}
	s.spans = append(s.spans, span{Op: r, Name: "core.resume.join_tail", Parent: "round", Start: lastEnd, End: t1})
}

func runFanout(e env) result {
	r := newResult("batch_fanout")
	s, setup := timedSetups(e, setupFanout)
	r.E2E["setup_s"] = setup

	rounds := int64(e.sz.fanoutRounds)
	var lat, remote, tail []int64
	var rates []float64
	var sum core.Stats // counters added up over the reps' runtimes; peaks kept as maxima
	for start := time.Now(); time.Since(start).Seconds() < e.seconds || len(rates) < 3; {
		rep := len(rates)
		dt, st, broken := s.rep()
		rates = append(rates, float64(rounds)/dt.Seconds())
		sum.Steals += st.Steals
		sum.StealAttempts += st.StealAttempts
		sum.Suspends += st.Suspends
		sum.UnmappedPages += st.UnmappedPages
		sum.VM.PageFaults += st.VM.PageFaults
		sum.StacksCreated = max(sum.StacksCreated, st.StacksCreated)
		sum.MaxStacksUsed = max(sum.MaxStacksUsed, st.MaxStacksUsed)
		sum.VM.MaxRSSPages = max(sum.VM.MaxRSSPages, st.VM.MaxRSSPages)
		for i, got := range s.got {
			op := rep*int(rounds) + i
			want := s.want[i]
			if op == e.badOp {
				want++
			}
			r.Attempted++
			switch {
			case got != want:
				r.fail(1, "round %d: sum %#x, want %#x", op, got, want)
			case broken != "":
				r.fail(1, "round %d: %s", op, broken)
			default:
				lat = append(lat, s.roundNs[i])
			}
		}
		remote, tail = append(remote, s.remoteNs...), append(tail, s.tailNs...)
		if rep == 0 {
			r.Spans = append(r.Spans, s.spans...)
		}
	}
	r.throughput(rates)
	r.latencyMetrics(lat, e.sz.fanoutSLO)

	// Per-layer counts, from the runtimes' own counters over the measured reps.
	n := float64(rounds) * float64(len(rates))
	per := func(d int64) value { return val(float64(d)/n, "count", int(n)) }
	r.Layer["core.steal.steals_per_round"] = per(sum.Steals)
	r.Layer["core.suspend.suspends_per_round"] = per(sum.Suspends)
	r.Layer["vm.unmapped_pages_per_round"] = per(sum.UnmappedPages)
	r.Layer["vm.page_faults_per_round"] = per(sum.VM.PageFaults)
	if sum.StealAttempts > 0 {
		r.Layer["core.steal.success_ratio"] = val(float64(sum.Steals)/float64(sum.StealAttempts), "ratio", int(sum.StealAttempts))
	}
	r.Layer["stack.pool.stacks_created"] = val(float64(sum.StacksCreated), "count", len(rates))
	r.Layer["stack.pool.max_in_use"] = val(float64(sum.MaxStacksUsed), "count", len(rates))
	r.Layer["vm.peak_rss_pages"] = val(float64(sum.VM.MaxRSSPages), "count", len(rates))
	if e.traced {
		r.Layer["core.steal.fork_to_remote_start_ns"] = p50ns(remote)
		r.Layer["core.resume.join_tail_ns"] = p50ns(tail)
	}
	return r
}
