package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// This file fences the join protocol (DESIGN.md §5): a child is counted on
// its frame by the thief that takes it, never by the Fork that publishes it,
// and the per-fork statistics are kept on the W and folded into the slot's
// counters at the points where somebody may read them.

// needCPUs raises GOMAXPROCS for the test when the run offers fewer (the
// -cpu 1 leg): a steal can only race the owner's Join if both run.
func needCPUs(t *testing.T, n int) {
	if prev := runtime.GOMAXPROCS(0); prev < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// stampLeaf is the near-empty child of TestStealRacesOwnerJoin: it bumps
// its word of the round's payload, so a child that ran twice, or not at
// all, or after its block was recycled, leaves a wrong value behind.
func stampLeaf(_ *W, p unsafe.Pointer) { *(*uint64)(p)++ }

// TestStealRacesOwnerJoin races thieves against the owner's Join on frames
// of one to sixteen near-empty children: whichever of the two gets a child,
// it runs exactly once; Join never returns while a child is unfinished (the
// owner checks every child's stamp the moment Join returns); and the block
// holding frame and payload goes back to the arena right after the Join and
// comes straight back for the next round, so a thief still touching a frame
// that Join has let go of corrupts a later round's stamps or count. The
// k2spin leg puts a short serial section between its two forks, so that the
// steal of the first, public child lands now before the second fork (which
// then publishes itself), now between that private push and the Join.
func TestStealRacesOwnerJoin(t *testing.T) {
	needCPUs(t, 2)
	rounds := 100_000
	if raceEnabled || testing.Short() {
		rounds = 10_000
	}
	type leg struct {
		k    int
		spin bool
	}
	for _, workers := range []int{2, 4} {
		for _, l := range []leg{{k: 1}, {k: 2}, {k: 3}, {k: 16}, {k: 2, spin: true}} {
			k, name := l.k, fmt.Sprintf("P%d/k%d", workers, l.k)
			if l.spin {
				name += "spin"
			}
			t.Run(name, func(t *testing.T) {
				rt := NewRuntime(Config{Workers: workers})
				var bad atomic.Int64
				watchdog(t, 120*time.Second, func() {
					rt.Run(func(w *W) {
						for r := 1; r <= rounds; r++ {
							s := w.AcquireScratch()
							pay := (*[ScratchBytes / 8]uint64)(s.Ptr())
							stamp := uint64(r) << 8
							fr := s.Frame()
							w.Init(fr)
							for i := 0; i < k; i++ {
								pay[i] = stamp
								w.ForkArg(fr, stampLeaf, unsafe.Pointer(&pay[i]))
								if l.spin && i == 0 {
									var x uint64
									for j := r % 256; j > 0; j-- {
										next(&x)
									}
									spinSink.Add(x)
								}
							}
							w.Join(fr)
							for i := 0; i < k; i++ {
								if pay[i] != stamp+1 {
									bad.Add(1)
								}
							}
							if fr.count.Load() != 0 || fr.pending != 0 {
								bad.Add(1)
							}
							w.ReleaseScratch(s)
						}
					})
				})
				st := rt.Stats()
				if n := bad.Load(); n != 0 {
					t.Errorf("%d children had not run exactly once when Join returned", n)
				}
				if want := int64(rounds * k); st.Forks != want {
					t.Errorf("Forks = %d, want %d", st.Forks, want)
				}
				if st.Suspends != st.Resumes || st.Suspends > st.Steals {
					t.Errorf("suspends=%d resumes=%d steals=%d, want suspends == resumes <= steals",
						st.Suspends, st.Resumes, st.Steals)
				}
				if st.ArenaAcquires != int64(rounds) || st.ArenaReleases != int64(rounds) {
					t.Errorf("arena acquires=%d releases=%d, want %d each", st.ArenaAcquires, st.ArenaReleases, rounds)
				}
				if q := rt.QueuedTasks(); q != 0 {
					t.Errorf("%d tasks left in the deques", q)
				}
				t.Logf("%d rounds: %d steals, %d suspends", rounds, st.Steals, st.Suspends)
			})
		}
	}
}

// TestAbandonedFrameChildrenStillRun abandons a frame: a task forks a child
// on an inner frame and panics before joining it. Nobody will ever wait on
// that frame, but its child is still a task in a deque: at Workers=1 the
// outer Join — which still has a child of its own to pop — pops the
// foreign-frame child on the way and runs it; at Workers=4 a thief may have
// taken the panicking task, the child, or both. Either way the child runs
// exactly once, the panic surfaces at the Join of the frame the panicking
// task was forked on, and the runtime goes on to run the next job.
func TestAbandonedFrameChildrenStillRun(t *testing.T) {
	needCPUs(t, 2)
	rounds := 2000
	if raceEnabled || testing.Short() {
		rounds = 300
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("P%d", workers), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: workers})
			for r := 0; r < rounds; r++ {
				var siblingRan, childRan atomic.Int32
				var surfaced any
				ranAtJoin := int32(-1)
				watchdog(t, 60*time.Second, func() {
					rt.Run(func(w *W) {
						outer, inner := new(Frame), new(Frame)
						w.Init(outer)
						w.Fork(outer, func(*W) { siblingRan.Add(1) })
						w.Fork(outer, func(cw *W) {
							cw.Init(inner)
							cw.Fork(inner, func(*W) { childRan.Add(1) })
							panic("abandon")
						})
						func() {
							defer func() { surfaced = recover() }()
							w.Join(outer)
						}()
						ranAtJoin = childRan.Load()
						// With the panicking task stolen, its child sits in
						// the thief's deque until another thief takes it; the
						// job is not over before it has run.
						for childRan.Load() == 0 {
							runtime.Gosched()
						}
					})
				})
				tp, ok := surfaced.(*TaskPanic)
				if !ok || tp.Value != "abandon" {
					t.Fatalf("round %d: Join(outer) recovered %v, want the task's panic", r, surfaced)
				}
				if workers == 1 && ranAtJoin != 1 {
					t.Fatalf("round %d: child had run %d times when the outer Join returned, want 1", r, ranAtJoin)
				}
				if c, s := childRan.Load(), siblingRan.Load(); c != 1 || s != 1 {
					t.Fatalf("round %d: abandoned frame's child ran %d times, its sibling %d, want 1 and 1", r, c, s)
				}
				if q := rt.QueuedTasks(); q != 0 {
					t.Fatalf("round %d: %d tasks left in the deques", r, q)
				}
			}
			var out int64
			st := rt.Run(func(w *W) { out = gateFib(w, 15) })
			if want := fibSerial(15); out != want {
				t.Errorf("next job: gateFib(15) = %d, want %d", out, want)
			}
			if st.Suspends != st.Resumes {
				t.Errorf("suspends=%d resumes=%d, want equal", st.Suspends, st.Resumes)
			}
		})
	}
}

// forked is the truth countedFib keeps beside the runtime's own count: it
// is bumped before every fork, so at any instant it is at least the forks
// made.
var forked atomic.Int64

func countedTask(w *W, p unsafe.Pointer) {
	c := (*gateCtx)(p)
	c.res = countedFib(w, c.n)
}

// countedFib is gateFib counting its forks in forked.
func countedFib(w *W, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	s := w.AcquireScratch()
	pay := (*[2]gateCtx)(s.Ptr())
	pay[0].n = n - 1
	pay[1].n = n - 2
	fr := s.Frame()
	w.Init(fr)
	forked.Add(1)
	w.ForkArgSized(fr, gateFrameBytes, countedTask, unsafe.Pointer(&pay[0]))
	w.CallArgSized(gateFrameBytes, countedTask, unsafe.Pointer(&pay[1]))
	w.Join(fr)
	res := pay[0].res + pay[1].res
	w.ReleaseScratch(s)
	return res
}

// TestStatsExactAtQuiescenceLaggedLive pins both halves of the statistics
// contract now that the per-fork counters live on the W. Read after Run
// returns they are exact — on every strategy, whoever ran the forks (the
// benchmark's ops_per_s is Stats.Forks over time). Read while a worker runs
// they are a lower bound that never falls more than countFlushForks behind
// it, never runs ahead and never steps back.
func TestStatsExactAtQuiescenceLaggedLive(t *testing.T) {
	needCPUs(t, 2)
	n := 25
	if raceEnabled || testing.Short() {
		n = 20
	}
	nodes := fibSerial(n+1) - 1 // internal nodes of fib(n)'s call tree: one fork each
	if n == 25 && nodes != 121392 {
		t.Fatalf("fib(25) has %d internal nodes by this count, want 121392", nodes)
	}
	for _, s := range Strategies() {
		for _, workers := range []int{1, 2, 4} {
			rt := NewRuntime(Config{Workers: workers, Strategy: s, StackPages: 4096})
			var out int64
			st := rt.Run(func(w *W) { out = gateFib(w, n) })
			if want := fibSerial(n); out != want {
				t.Fatalf("%s P=%d: gateFib(%d) = %d, want %d", s, workers, n, out, want)
			}
			if st.Forks != nodes || st.Calls != nodes || st.ArenaAcquires != nodes || st.ArenaReleases != nodes {
				t.Errorf("%s P=%d: forks=%d calls=%d acquires=%d releases=%d, want %d each",
					s, workers, st.Forks, st.Calls, st.ArenaAcquires, st.ArenaReleases, nodes)
			}
			if st.Suspends != st.Resumes || st.Resumes > st.Steals || st.Steals > st.Forks {
				t.Errorf("%s P=%d: suspends=%d resumes=%d steals=%d forks=%d, want suspends == resumes <= steals <= forks",
					s, workers, st.Suspends, st.Resumes, st.Steals, st.Forks)
			}
		}
	}

	// Live: one worker, nothing stolen, so everything is counted privately
	// and only the every-countFlushForks fold shows. The sampler brackets
	// each Stats() between two reads of the truth.
	const liveN, wantSamples = 27, 200
	rt := NewRuntime(Config{Workers: 1})
	forked.Store(0)
	var running atomic.Bool
	running.Store(true)
	type verdict struct{ nonZero, ahead, behind, backwards, worstLag int64 }
	res := make(chan verdict)
	var samples atomic.Int64 // taken while the root ran
	go func() {
		var v verdict
		var last int64
		for running.Load() {
			lo := forked.Load()
			got := rt.Stats().Forks
			hi := forked.Load()
			if !running.Load() {
				break
			}
			samples.Add(1)
			if got > 0 {
				v.nonZero++
			}
			if got > hi {
				v.ahead++
			}
			if lag := lo - got; lag > countFlushForks {
				v.behind++
				v.worstLag = max(v.worstLag, lag)
			}
			if got < last {
				v.backwards++
			}
			last = got
			runtime.Gosched()
		}
		res <- v
	}()
	reps := 0
	st := rt.Run(func(w *W) {
		// Until the sampler has had its share of looks; a starved sampler
		// (one CPU, a busy host) gets more repetitions, not a failure.
		for reps < 100 && (reps == 0 || samples.Load() < wantSamples) {
			countedFib(w, liveN)
			reps++
		}
		running.Store(false)
	})
	v := <-res
	t.Logf("live: %d samples in flight over %d runs of fib(%d), %d non-zero", samples.Load(), reps, liveN, v.nonZero)
	if st.Forks != forked.Load() {
		t.Errorf("live run: Forks = %d at quiescence, %d forks made", st.Forks, forked.Load())
	}
	if v.nonZero == 0 {
		t.Errorf("no Stats() taken while the root ran saw a fork (%d samples): the private counts never reach the slot before the end", samples.Load())
	}
	if v.ahead != 0 || v.backwards != 0 {
		t.Errorf("%d samples ran ahead of the forks made, %d stepped back", v.ahead, v.backwards)
	}
	if v.behind != 0 {
		t.Errorf("%d samples lagged the worker by more than %d forks (worst %d)", v.behind, countFlushForks, v.worstLag)
	}
}

// TestSuspendBackOutGivesWaitBack pins the back-out of a suspend whose
// stolen children all finished before its commit CAS. suspend counts a wait
// on its W's hand-off before that CAS, because the child that sees the
// suspend bit delivers at once; a suspend that finds the count zero must
// give the wait back. Otherwise the next suspend on the same W would wait
// for two deliveries and get one, and the round below would never end.
func TestSuspendBackOutGivesWaitBack(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	var st Stats
	watchdog(t, 30*time.Second, func() {
		st = rt.Run(func(w *W) {
			var fr Frame
			w.Init(&fr)
			if w.suspend(&fr) {
				t.Error("suspend committed on a frame with no stolen child")
			}
			// A round that certainly suspends: the child, stolen, finishes
			// only once its parent is parked.
			var started atomic.Bool
			w.Init(&fr)
			w.Fork(&fr, func(*W) {
				started.Store(true)
				for fr.count.Load()&frameSuspended == 0 {
					runtime.Gosched()
				}
			})
			for !started.Load() {
				runtime.Gosched()
			}
			w.Join(&fr)
		})
	})
	if st.Suspends != 1 || st.Resumes != 1 {
		t.Errorf("suspends=%d resumes=%d, want 1 and 1: the back-out is no suspension", st.Suspends, st.Resumes)
	}
}
