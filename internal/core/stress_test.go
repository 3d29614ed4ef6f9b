package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// randomProgram builds a deterministic random fork-join program from a
// seed: a nest of forks, calls, joins, and frame reuses whose leaves each
// add a distinct token to an accumulator. The expected total depends only
// on the seed, so any loss, duplication, or ordering bug in the scheduler
// shows up as a wrong sum under some strategy or worker count.
type randomProgram struct {
	seed     uint64
	expected int64
}

func newRandomProgram(seed uint64) *randomProgram {
	p := &randomProgram{seed: seed | 1}
	p.expected = p.simulate(p.seed, 0)
	return p
}

// next is a splitmix64 step shared by the serial simulation and the
// parallel execution so both derive the identical program shape.
func next(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// shape decodes a node's branching from its seed: how many fork phases,
// children per phase, and whether to recurse via call as well.
func shape(seed uint64, depth int) (phases, children int, call bool, leaf int64) {
	s := seed
	r := next(&s)
	if depth >= 6 || r%4 == 0 {
		return 0, 0, false, int64(r%1000) + 1
	}
	return int(r%2) + 1, int(r>>8%3) + 1, r>>16%2 == 0, 0
}

// simulate computes the expected accumulator total serially.
func (p *randomProgram) simulate(seed uint64, depth int) int64 {
	phases, children, call, leaf := shape(seed, depth)
	if phases == 0 {
		return leaf
	}
	var total int64
	s := seed
	for ph := 0; ph < phases; ph++ {
		for c := 0; c < children; c++ {
			total += p.simulate(next(&s), depth+1)
		}
	}
	if call {
		total += p.simulate(next(&s), depth+1)
	}
	return total
}

// run executes the same program on the runtime.
func (p *randomProgram) run(w *W, seed uint64, depth int, acc *atomic.Int64) {
	phases, children, call, leaf := shape(seed, depth)
	if phases == 0 {
		acc.Add(leaf)
		return
	}
	s := seed
	var fr Frame
	w.Init(&fr)
	for ph := 0; ph < phases; ph++ {
		for c := 0; c < children; c++ {
			childSeed := next(&s)
			w.Fork(&fr, func(w *W) { p.run(w, childSeed, depth+1, acc) })
		}
		w.Join(&fr) // frame reuse across phases
	}
	if call {
		callSeed := next(&s)
		w.Call(func(w *W) { p.run(w, callSeed, depth+1, acc) })
	}
}

func TestStressRandomProgramsAllStrategies(t *testing.T) {
	for _, strat := range Strategies() {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				p := newRandomProgram(seed * 0x1F3D5B79)
				rt := NewRuntime(Config{Workers: 6, Strategy: strat, StackPages: 4096})
				var acc atomic.Int64
				rt.Run(func(w *W) { p.run(w, p.seed, 0, &acc) })
				if got := acc.Load(); got != p.expected {
					t.Errorf("seed %d: total %d, want %d", seed, got, p.expected)
				}
			}
		})
	}
}

// Property: arbitrary seeds, arbitrary worker counts, Fibril strategy.
func TestQuickRandomPrograms(t *testing.T) {
	prop := func(seedRaw uint32, wRaw uint8) bool {
		p := newRandomProgram(uint64(seedRaw))
		workers := int(wRaw%8) + 1
		rt := NewRuntime(Config{Workers: workers, StackPages: 4096})
		var acc atomic.Int64
		rt.Run(func(w *W) { p.run(w, p.seed, 0, &acc) })
		return acc.Load() == p.expected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStressRepeatedRunsReuseRuntime hammers one runtime with many
// back-to-back computations, checking counter monotonicity and result
// stability — the pattern of a long-lived server embedding the runtime.
func TestStressRepeatedRunsReuseRuntime(t *testing.T) {
	rt := NewRuntime(Config{Workers: 8})
	// Pick a seed whose root actually forks, so the counter check is
	// meaningful.
	var p *randomProgram
	for seed := uint64(0xFEEDFACE); ; seed += 2 {
		p = newRandomProgram(seed)
		if phases, _, _, _ := shape(p.seed, 0); phases > 0 {
			break
		}
	}
	prevForks := int64(0)
	for i := 0; i < 30; i++ {
		var acc atomic.Int64
		rt.Run(func(w *W) { p.run(w, p.seed, 0, &acc) })
		if acc.Load() != p.expected {
			t.Fatalf("iteration %d: total %d, want %d", i, acc.Load(), p.expected)
		}
		forks := rt.Stats().Forks
		if forks <= prevForks {
			t.Fatalf("iteration %d: fork counter did not advance (%d -> %d)", i, prevForks, forks)
		}
		prevForks = forks
	}
}

// TestStressDeepAndWide combines a deep spawn chain with wide fan-out at
// the bottom — suspension-heavy and steal-heavy at once.
func TestStressDeepAndWide(t *testing.T) {
	rt := NewRuntime(Config{Workers: 8})
	var leaves atomic.Int64
	var dive func(w *W, d int)
	dive = func(w *W, d int) {
		var fr Frame
		w.Init(&fr)
		if d == 0 {
			for i := 0; i < 32; i++ {
				w.ForkSized(&fr, 512, func(*W) { leaves.Add(1) })
			}
			w.Join(&fr)
			return
		}
		w.ForkSized(&fr, 512, func(w *W) { dive(w, d-1) })
		w.Join(&fr)
	}
	rt.Run(func(w *W) { dive(w, 200) })
	if got := leaves.Load(); got != 32 {
		t.Errorf("leaves = %d, want 32", got)
	}
	s := rt.Stats()
	if s.Suspends != s.Resumes {
		t.Errorf("suspends %d != resumes %d", s.Suspends, s.Resumes)
	}
}

// TestQuiescentAfterRun is the busy-leaves quiescence oracle the serve
// drain gate relies on, on the default configuration: after Run returns
// from a 12-ary depth-3 tree on four workers, no deque entry and no
// inflight job may be left behind — round after round, each on a fresh
// runtime.
func TestQuiescentAfterRun(t *testing.T) {
	rounds := 3000
	if testing.Short() || raceEnabled {
		rounds = 300
	}
	var leaves atomic.Int64
	var tree func(w *W, depth int)
	tree = func(w *W, depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		var fr Frame
		w.Init(&fr)
		for k := 0; k < 12; k++ {
			w.Fork(&fr, func(w *W) { tree(w, depth-1) })
		}
		w.Join(&fr)
	}
	for round := 0; round < rounds; round++ {
		rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
		rt.Run(func(w *W) { tree(w, 3) })
		if q, j := rt.QueuedTasks(), rt.InflightJobs(); q != 0 || j != 0 {
			t.Fatalf("round %d: QueuedTasks=%d InflightJobs=%d after Run, want 0/0 (steals=%d)",
				round, q, j, rt.Stats().Steals)
		}
		// Every thief counted itself idle and busy again as often: a count
		// left over would make every later Fork publish (or none).
		if n := rt.park.nidle.Load(); n != 0 {
			t.Fatalf("round %d: %d slots still counted idle after Run", round, n)
		}
	}
	if got, want := leaves.Load(), int64(rounds)*12*12*12; got != want {
		t.Errorf("leaves = %d, want %d", got, want)
	}
}
