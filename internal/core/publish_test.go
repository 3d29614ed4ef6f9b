package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fibril/internal/deque"
)

// This file fences the publish rule (DESIGN.md §5): a Fork leaves its child
// in the owner-private part of the slot's deque unless a probing thief would
// otherwise find nothing; a steal costs the owner one republish at its next
// deque operation; and a goroutine runs whatever its task left on a deque
// before it stops operating on it (W.drain), so nothing stays private.

// spinUntil yields until cond holds. The watchdog around the run is what
// bounds it.
func spinUntil(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// TestUnstolenForkStaysPrivate counts, exactly, the owner's stores to the
// deque's shared tail word in a run nothing is stolen from. In gate-fib(n)
// at Workers=1 the only forks that find the public part dry are those of the
// leftmost spine — fib(n) forking fib(n-1), which the root's Join pops back
// and runs, and which then forks fib(n-2) into an empty deque, down to
// fib(2) forking fib(1): n-1 publishes and n-1 pops of a public entry.
// Every other fork and pop — all but a few dozen of the run's
// 2·(fib(n+1)-1) — touches the owner's memory only.
func TestUnstolenForkStaysPrivate(t *testing.T) {
	for _, n := range []int{20, 23, 25} {
		rt := NewRuntime(Config{Workers: 1})
		var out int64
		st := rt.Run(func(w *W) { out = gateFib(w, n) })
		if want := fibSerial(n); out != want {
			t.Fatalf("gateFib(%d) = %d, want %d", n, out, want)
		}
		if forks := fibSerial(n+1) - 1; st.Forks != forks || st.Steals != 0 {
			t.Fatalf("gateFib(%d): forks=%d steals=%d, want %d and 0", n, st.Forks, st.Steals, forks)
		}
		if got, want := rt.workers[0].deque.TailStores(), int64(2*(n-1)); got != want {
			t.Errorf("gateFib(%d): %d owner-side tail stores over %d forks, want exactly %d", n, got, st.Forks, want)
		}
	}
}

// TestForkPublishesWhileThiefRegistered pins the fork tail's two regimes on
// one worker, deterministically: with every slot busy only the fork that
// finds the public part dry publishes; with a thief parked — a bare W that
// freed a slot of its own outside the runtime's, so it cannot steal, and
// counted idle as spawnThief counts a slot — every Fork returns with all the
// worker holds stealable and the free slot delivered to that thief, exactly
// as before the deque had a private part.
func TestForkPublishesWhileThiefRegistered(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	var ran atomic.Int32
	rt.Run(func(w *W) {
		d, p := w.slot.deque, rt.park
		leaf := func(*W) { ran.Add(1) }
		var fr Frame
		w.Init(&fr)
		for i := 0; i < 3; i++ {
			w.Fork(&fr, leaf)
		}
		if got := d.Len(); got != 1 {
			t.Errorf("nobody idle: %d of 3 forks are public, want 1", got)
		}
		thief := &W{slot: &worker{id: 0, deque: new(deque.Deque[task])}}
		own := thief.slot
		p.nidle.Add(1)
		p.park(thief, new(atomic.Int64), noWork)
		w.Fork(&fr, leaf)
		if got := d.Len(); got != 4 {
			t.Errorf("thief parked: %d of 4 forks are public on return from Fork, want 4", got)
		}
		if n := p.nfree.Load(); n != 0 {
			t.Errorf("%d slots still free after a Fork with one free: no wake gave it out", n)
		}
		if got := delivered(t, waitAsync(thief), "the parked thief"); got != own {
			t.Errorf("the parked thief was delivered %v, want the slot it freed", got)
		}
		p.nidle.Add(-1)
		w.Join(&fr)
	})
	if got := ran.Load(); got != 4 {
		t.Errorf("%d leaves ran, want 4", got)
	}
}

// TestStealRefillsPublicPart walks one worker into the state the publish
// rule has to repair — its public part emptied by a thief while it holds
// private children, and that thief since gone to sleep — and checks that the
// worker's very next deque operation, be it a Pop (the Join) or a Fork,
// republishes and wakes the thief: the child the owner runs inline blocks
// until the thief has run another, so a wake that did not happen is a hang.
func TestStealRefillsPublicPart(t *testing.T) {
	for _, next := range []string{"pop", "fork"} {
		t.Run(next, func(t *testing.T) {
			needCPUs(t, 2)
			rt := NewRuntime(Config{Workers: 2})
			var c0Started, c0Release, c1Ran atomic.Bool
			var ran [5]atomic.Int32
			var st Stats
			watchdog(t, 30*time.Second, func() {
				st = rt.Run(func(w *W) {
					d := w.slot.deque
					release := make(chan struct{})
					var fr Frame
					w.Init(&fr)
					// c0 keeps the one thief busy, so no slot is idle, parked or
					// probing while c1..c3 are forked.
					w.Fork(&fr, func(*W) {
						ran[0].Add(1)
						c0Started.Store(true)
						spinUntil(c0Release.Load)
					})
					spinUntil(c0Started.Load)
					w.Fork(&fr, func(*W) { ran[1].Add(1); c1Ran.Store(true) })
					w.Fork(&fr, func(*W) { ran[2].Add(1); close(release) })
					w.Fork(&fr, func(*W) { ran[3].Add(1); <-release })
					if got := d.Len(); got != 1 {
						t.Errorf("%d of c1..c3 are public after three forks into an empty deque, want 1", got)
					}
					// The thief finishes c0, takes c1 — all it can see — and,
					// finding nothing more, searches and parks.
					c0Release.Store(true)
					spinUntil(c1Ran.Load)
					waitParked(t, rt, 1, 10*time.Second)
					if d.Len() != 0 || ran[2].Load() != 0 || ran[3].Load() != 0 {
						t.Errorf("before the owner's next operation: public part %d, c2 ran %d, c3 ran %d; want 0, 0, 0",
							d.Len(), ran[2].Load(), ran[3].Load())
					}
					if next == "fork" {
						// Publishes c2, c3 and c4 and wakes; the Join then pops
						// c4, which blocks until the thief has run c2.
						w.Fork(&fr, func(*W) { ran[4].Add(1); <-release })
					}
					// "pop": the Join pops c3 privately, finds the public part
					// dry, republishes c2 and wakes; c3 blocks until the thief
					// has run c2.
					w.Join(&fr)
				})
			})
			for i := range ran {
				want := int32(1)
				if i == 4 && next == "pop" {
					want = 0
				}
				if got := ran[i].Load(); got != want {
					t.Errorf("c%d ran %d times, want %d", i, got, want)
				}
			}
			if st.Steals < 3 || st.ThiefParks < 1 {
				t.Errorf("steals=%d parks=%d, want the thief to have taken c0, c1 and c2 and slept in between", st.Steals, st.ThiefParks)
			}
			if q := rt.QueuedTasks(); q != 0 {
				t.Errorf("%d tasks left in the deques", q)
			}
		})
	}
}

// TestAbandonedPrivateChildrenStillRun has a stolen task fork three children
// — the first public, the others private — and panic without joining them,
// once its parent has suspended. Nobody will ever pop those children: the
// thief that ran the task goes back to stealing from others, and the resumed
// parent only waits. They run because the goroutine that ran a base-level
// task publishes and drains what the task left on its deque before it
// reports completion (W.drain); without that the parent waits for ever.
func TestAbandonedPrivateChildrenStillRun(t *testing.T) {
	needCPUs(t, 2)
	rounds := 300
	if raceEnabled || testing.Short() {
		rounds = 50
	}
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("P%d", workers), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: workers})
			for r := 0; r < rounds; r++ {
				var ran [3]atomic.Int32
				var total atomic.Int32
				var started atomic.Bool
				var surfaced any
				watchdog(t, 30*time.Second, func() {
					rt.Run(func(w *W) {
						outer, inner := new(Frame), new(Frame)
						w.Init(outer)
						w.Fork(outer, func(cw *W) {
							cw.Init(inner)
							for i := range ran {
								cw.Fork(inner, func(*W) { ran[i].Add(1); total.Add(1) })
							}
							started.Store(true)
							// Panic only once the parent is parked in its Join:
							// its slot then has a thief on it, which is what
							// can reach this worker's deque afterwards.
							spinUntil(func() bool { return outer.count.Load()&frameSuspended != 0 })
							panic("abandon")
						})
						// Not joining yet leaves the task to a thief.
						spinUntil(started.Load)
						func() {
							defer func() { surfaced = recover() }()
							w.Join(outer)
						}()
						spinUntil(func() bool { return total.Load() == int32(len(ran)) })
					})
				})
				if tp, ok := surfaced.(*TaskPanic); !ok || tp.Value != "abandon" {
					t.Fatalf("round %d: Join(outer) recovered %v, want the task's panic", r, surfaced)
				}
				for i := range ran {
					if got := ran[i].Load(); got != 1 {
						t.Fatalf("round %d: abandoned child %d ran %d times, want 1", r, i, got)
					}
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
	// The TBB join runs a stolen task in the middle of a Join, not at base
	// level, and drains behind it all the same (joinBlocked). The root's child
	// X goes to the other worker and waits there; the root's Join, which never
	// suspends, steals X's child Y from it and runs Y inline; Y forks three
	// children on the root's deque and panics. After that the root only waits
	// — no Fork, no Pop — so the two children Y left private run only if that
	// Join drained them.
	t.Run(StrategyTBB.String(), func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 2, Strategy: StrategyTBB})
		for r := 0; r < rounds; r++ {
			var ran [3]atomic.Int32
			var total atomic.Int32
			var xStarted, yStarted atomic.Bool
			var surfaced any
			var st Stats
			watchdog(t, 30*time.Second, func() {
				st = rt.Run(func(w *W) {
					outer, fx, inner := new(Frame), new(Frame), new(Frame)
					w.Init(outer)
					w.Fork(outer, func(xw *W) {
						xw.Init(fx)
						xw.Fork(fx, func(yw *W) {
							yStarted.Store(true)
							yw.Init(inner)
							for i := range ran {
								yw.Fork(inner, func(*W) { ran[i].Add(1); total.Add(1) })
							}
							panic("abandon")
						})
						xStarted.Store(true)
						spinUntil(yStarted.Load) // not joining yet leaves Y to the root
						xw.Join(fx)
					})
					spinUntil(xStarted.Load) // and X to the thief
					func() {
						defer func() { surfaced = recover() }()
						w.Join(outer)
					}()
					spinUntil(func() bool { return total.Load() == int32(len(ran)) })
				})
			})
			if tp, ok := surfaced.(*TaskPanic); !ok || tp.Value != "abandon" {
				t.Fatalf("round %d: Join(outer) recovered %v, want the task's panic", r, surfaced)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("round %d: abandoned child %d ran %d times, want 1", r, i, got)
				}
			}
			if q := rt.QueuedTasks(); q != 0 {
				t.Fatalf("round %d: %d tasks left in the deques", r, q)
			}
			if want := int64(r + 1); st.RestrictedSteals < want {
				t.Fatalf("round %d: %d inline steals so far, want >= %d: Y did not run inside the root's Join",
					r, st.RestrictedSteals, want)
			}
			if n := rt.park.nidle.Load(); n != 0 {
				t.Fatalf("round %d: %d slots still counted idle after Run", r, n)
			}
		}
	})
}

// gcPayload is what a forked closure is the only reference to. It is past
// the tiny allocator's 16 bytes and holds no pointer, so it is an object of
// its own with a finalizer of its own.
type gcPayload [8]uint64

// forkHolder forks a closure that alone refers to a fresh gcPayload, and
// returns with no copy of either pointer left in a live frame: from here to
// the closure's run, the deque entry's arg word is all that holds them.
//
//go:noinline
func forkHolder(w *W, f *Frame, seed uint64, finalized *atomic.Int32, sum *uint64) {
	p := new(gcPayload)
	for i := range p {
		p[i] = seed + uint64(i)
	}
	runtime.SetFinalizer(p, func(*gcPayload) { finalized.Add(1) })
	w.Fork(f, func(*W) {
		for _, v := range p {
			*sum += v
		}
	})
}

// collect runs two collector cycles and returns once the finalizers the first
// queued have run: each cycle queues a canary nothing refers to and waits for
// its finalizer, and the second canary covers a finalizer that the first
// batch ran the first canary ahead of.
func collect(t *testing.T) {
	t.Helper()
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(new(gcPayload), func(*gcPayload) { close(done) })
		runtime.GC()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("an unreachable canary was not finalized within 10 s of runtime.GC")
		}
	}
}

// TestQueuedClosureSurvivesGC pins what keeps a forked closure alive: the
// deque entry itself. A closure travels as the arg word of its task (the fn
// word is the runClosure trampoline), and the ring is plain memory the
// collector scans, so arg must be an unsafe.Pointer. As a uintptr it would
// still run — on memory the collector has handed to someone else. Two
// closures are forked at Workers=1: the first finds the public part dry and
// is published, the second stays private. The collector runs, the private
// one is published and it runs again; then both run and read their objects.
func TestQueuedClosureSurvivesGC(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	var finalized atomic.Int32
	var sums [2]uint64
	rt.Run(func(w *W) {
		d := w.slot.deque
		var fr Frame
		w.Init(&fr)
		forkHolder(w, &fr, 100, &finalized, &sums[0])
		forkHolder(w, &fr, 200, &finalized, &sums[1])
		if got := d.Len(); got != 1 {
			t.Fatalf("%d of 2 forks are public at Workers=1, want 1: the test no longer covers a private entry", got)
		}
		collect(t)
		if got := finalized.Load(); got != 0 {
			t.Errorf("%d of 2 queued closures' objects were collected while one sat public and one private in the deque", got)
		}
		if got := d.Publish(); got != 1 {
			t.Fatalf("Publish moved %d entries, want the 1 private one", got)
		}
		collect(t)
		if got := finalized.Load(); got != 0 {
			t.Errorf("%d of 2 queued closures' objects were collected by the time both sat in thief-visible slots", got)
		}
		w.Join(&fr)
	})
	for i, seed := range []uint64{100, 200} {
		if want := 8*seed + 28; sums[i] != want {
			t.Errorf("closure %d read a sum of %d from its object, want %d", i, sums[i], want)
		}
	}
}
