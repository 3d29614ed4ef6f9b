package core

import (
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog runs body on its own goroutine and fails the test, with a dump
// of every goroutine, if body has not returned within limit — a hang then
// costs seconds and names the lock, instead of a ten-minute binary timeout.
func watchdog(t *testing.T, limit time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		t.Fatalf("still running after %v (goroutine dump above)", limit)
	}
}

// waitParked blocks until n thieves are parked or the deadline passes.
func waitParked(t *testing.T, rt *Runtime, n int, deadline time.Duration) {
	t.Helper()
	start := time.Now()
	for rt.park.parked() < n {
		if time.Since(start) > deadline {
			t.Fatalf("only %d/%d thieves parked after %v", rt.park.parked(), n, deadline)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestForkAfterAllThievesParked is the lost-wakeup stress test: once every
// thief is parked, the root forks a pair of tasks where the one it would
// run inline blocks until a THIEF runs the other. If a Fork could slip
// past a parking thief (a lost wakeup), the blocked task would never be
// released and the test would hang.
func TestForkAfterAllThievesParked(t *testing.T) {
	const workers = 4
	t.Run("the", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: workers, StackPages: 4096})
		rt.Run(func(w *W) {
			for round := 0; round < 25; round++ {
				waitParked(t, rt, workers-1, 10*time.Second)
				release := make(chan struct{})
				var fr Frame
				w.Init(&fr)
				// Forked first, so it sits at the TOP of the deque:
				// only a woken thief can take it while the owner is
				// stuck inside the blocker below.
				w.Fork(&fr, func(*W) { close(release) })
				w.Fork(&fr, func(*W) { <-release })
				w.Join(&fr)
			}
		})
	})
}

// TestParkWakeStressBursts alternates idle phases (letting thieves walk
// the whole backoff ladder and park) with fork bursts, across GOMAXPROCS
// settings — the interleavings the wake protocol must survive.
func TestParkWakeStressBursts(t *testing.T) {
	for _, procs := range []int{2, 4} {
		procs := procs
		t.Run(map[int]string{2: "gomaxprocs2", 4: "gomaxprocs4"}[procs], func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
			var leaves atomic.Int64
			rt.Run(func(w *W) {
				for round := 0; round < 40; round++ {
					if round%4 == 0 {
						// Idle long enough for thieves to park.
						deadline := time.Now().Add(time.Second)
						for rt.park.parked() == 0 && time.Now().Before(deadline) {
							time.Sleep(50 * time.Microsecond)
						}
					}
					var fr Frame
					w.Init(&fr)
					for i := 0; i < 16; i++ {
						w.Fork(&fr, func(*W) { leaves.Add(1) })
					}
					w.Join(&fr)
				}
			})
			if got := leaves.Load(); got != 40*16 {
				t.Fatalf("leaves = %d, want %d", got, 40*16)
			}
		})
	}
}

// TestSerialWorkloadThievesGoQuiet pins the CPU-burn win: on a workload
// whose bottom is serial (no forks at all), thieves must park rather than
// spin, so the steal-attempt counter stays at zero — the seed runtime
// accumulated thousands of attempts per idle millisecond here.
func TestSerialWorkloadThievesGoQuiet(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
	var parkedSeen bool
	rt.Run(func(w *W) {
		// Serial bottom: plain Calls and real elapsed time, no forks.
		for i := 0; i < 20; i++ {
			w.Call(func(*W) { time.Sleep(2 * time.Millisecond) })
			if rt.park.parked() == len(rt.workers)-1 {
				parkedSeen = true
			}
		}
	})
	if !parkedSeen {
		t.Error("thieves never all parked during a serial workload")
	}
	if st := rt.Stats(); st.StealAttempts != 0 {
		t.Errorf("StealAttempts = %d on a forkless workload, want 0 "+
			"(every deque stays visibly empty)", st.StealAttempts)
	}
}

// TestParkedThievesWakeForLateWork verifies a thief parked early in a run
// still participates later: after the parked phase, a burst of
// slow tasks must see at least one steal (a thief resumed work).
func TestParkedThievesWakeForLateWork(t *testing.T) {
	rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
	rt.Run(func(w *W) {
		waitParked(t, rt, 3, 10*time.Second)
		var fr Frame
		w.Init(&fr)
		for i := 0; i < 8; i++ {
			w.Fork(&fr, func(*W) { time.Sleep(time.Millisecond) })
		}
		w.Join(&fr)
	})
	if st := rt.Stats(); st.Steals == 0 {
		t.Error("no steals after wake: parked thieves never rejoined the computation")
	}
}

// TestSubmitAfterAllThievesParked is the wake-one lost-wakeup regression
// on the dispatch path: with every thief parked, each Submit must wake
// enough thieves to run the root AND the task it forks. The root blocks
// inside the task it would run inline until a second thief runs the
// other, so a dropped dispatch wake (or a fork wake spent on a thief that
// is already busy) hangs the test. Its one subtest is named "sharded",
// after the per-slot intake that is gone, only so that its recorded name
// stays stable.
func TestSubmitAfterAllThievesParked(t *testing.T) {
	const workers = 4
	t.Run("sharded", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: workers, StackPages: 4096})
		rt.Start()
		for round := 0; round < 25; round++ {
			waitParked(t, rt, workers, 10*time.Second)
			release := make(chan struct{})
			j := rt.Submit(func(w *W) {
				var fr Frame
				w.Init(&fr)
				// Forked first, so it sits at the TOP of the deque:
				// only a woken thief can take it while the root's
				// worker is stuck inside the blocker below.
				w.Fork(&fr, func(*W) { close(release) })
				w.Fork(&fr, func(*W) { <-release })
				w.Join(&fr)
			})
			if err := j.Err(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			j.Release()
		}
		if err := rt.Close(context.Background()); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// testLot returns a park lot with room for n parked thieves, as NewRuntime
// makes it for Workers = n.
func testLot(n int) *parkLot {
	p := new(parkLot)
	p.thieves.ws = make([]*W, 0, n)
	return p
}

// TestWakeTokenCapNoStaleTokens unit-tests the delivery accounting that
// makes wake-one safe: a wake burst larger than the sleeper population
// must not leave surplus deliveries behind, or a thief parking later would
// sail straight through its sleep and busy-loop on an empty system. Each
// sleeper parks a bare W, as a thief parks its own.
func TestWakeTokenCapNoStaleTokens(t *testing.T) {
	p := testLot(4)
	noSweep := func() (task, bool) { return task{}, false }
	parkOne := func() chan struct{} {
		ch := make(chan struct{})
		go func() {
			p.park(new(W), new(atomic.Int64), noSweep)
			close(ch)
		}()
		return ch
	}
	waitSleepers := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for p.parked() != n {
			if time.Now().After(deadline) {
				t.Fatalf("parked() = %d, want %d", p.parked(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	awaits := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never woke", what)
		}
	}

	// Phase 1: one sleeper, wake(8). The burst reaches the one listed
	// sleeper — it wakes, and nothing is left for anyone after it.
	first := parkOne()
	waitSleepers(1)
	if !p.wake(8) {
		t.Error("wake(8) that reached a listed sleeper reported no delivery")
	}
	awaits(first, "first sleeper after wake(8)")
	waitSleepers(0)
	if p.wake(1) {
		t.Error("wake(1) with nobody listed reported a delivery")
	}

	// Phase 2: a fresh parker must actually sleep. If phase 1 had left a
	// surplus delivery this parker would return immediately.
	second := parkOne()
	waitSleepers(1)
	select {
	case <-second:
		t.Fatal("second parker woke on a stale delivery from the wake(8) burst")
	case <-time.After(50 * time.Millisecond):
	}
	p.wake(1)
	awaits(second, "second sleeper after wake(1)")
	waitSleepers(0)

	// Phase 3: a burst sized to the sleepers releases every one of them
	// and, like the larger burst, leaves no residue.
	a, b := parkOne(), parkOne()
	waitSleepers(2)
	p.wake(2)
	awaits(a, "sleeper a after wake(2)")
	awaits(b, "sleeper b after wake(2)")
	waitSleepers(0)
	late := parkOne()
	waitSleepers(1)
	select {
	case <-late:
		t.Fatal("late parker woke on a stale delivery from wake(2)")
	case <-time.After(50 * time.Millisecond):
	}
	p.thieves.close()
	awaits(late, "late sleeper after close")
}

// handOffRounds runs 400 rounds of round at GOMAXPROCS(1), where which of
// two runnable goroutines goes first is the scheduler's choice alone, and
// fails unless at least 95 % of them report true. Not all: at every 61st
// schedule Go takes the global run queue before the P's own, and so may run
// the yielder — which handOff and the completion yield put there — ahead of
// the goroutine the wake readied into runnext (1–2 % of rounds, up to 3 %
// under the race detector; 400 rounds keep the 95 % mark far in the tail).
func handOffRounds(t *testing.T, round func() bool) {
	t.Helper()
	const rounds = 400
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	won := 0
	for range rounds {
		if round() {
			won++
		}
	}
	t.Logf("the readied goroutine went first in %d of %d rounds", won, rounds)
	if won*100 < rounds*95 {
		t.Errorf("the readied goroutine went first in %d of %d rounds, want at least 95 %%", won, rounds)
	}
}

// TestCompletionYieldsToWaiter pins the completion half of the hand-off
// rule: the thief that completes a root yields its P once the slot counts
// idle again, so the root's waiter — readied into that P's runnext by
// Job.finish — returns from Err before the thief opens the next root. Each
// round submits A, an empty root, and B, whose root stamps a sequence
// number, and then blocks in A.Err and stamps; with one P and one worker,
// the waiter's stamp comes first only if the thief yielded.
func TestCompletionYieldsToWaiter(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	rt.Start()
	defer rt.Close(context.Background())
	var seq atomic.Int64
	handOffRounds(t, func() bool {
		var rootAt int64
		a := rt.Submit(func(*W) {})
		b := rt.Submit(func(*W) { rootAt = seq.Add(1) })
		if err := a.Err(); err != nil {
			t.Fatal(err)
		}
		waiterAt := seq.Add(1)
		if err := b.Err(); err != nil {
			t.Fatal(err)
		}
		a.Release()
		b.Release()
		return waiterAt < rootAt
	})
}

// TestForkWakeYieldsToThief pins the fork half of the hand-off rule: a Fork
// that wakes a parked thief yields its P, so the thief — readied into that
// P's runnext — steals the child before the forking root runs on. Each
// round waits until both thieves are parked, then submits a root that forks
// one child and stamps; the child must start on another stack before that
// stamp. Without the yield the root stamps first and its Join pops the
// child back.
func TestForkWakeYieldsToThief(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	rt.Start()
	defer rt.Close(context.Background())
	var seq atomic.Int64
	handOffRounds(t, func() bool {
		waitParked(t, rt, 2, 10*time.Second)
		var childAt, forkedAt int64
		var childStack, rootStack int
		j := rt.Submit(func(w *W) {
			rootStack = w.StackID()
			var fr Frame
			w.Init(&fr)
			w.Fork(&fr, func(w *W) {
				childStack = w.StackID()
				childAt = seq.Add(1)
			})
			forkedAt = seq.Add(1)
			w.Join(&fr)
		})
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		j.Release()
		return childStack != rootStack && childAt < forkedAt
	})
}

// TestWakeZeroTakesNoLock pins wake's first fast path: publishing nothing —
// a drain that found nothing private, a completion that promoted no queued
// job — returns before it looks at the lot, even while a thief is listed.
// The test holds the list's mutex, so a wake(0) that took it would block;
// the channel bounds the wait, so that regression fails instead of hanging.
func TestWakeZeroTakesNoLock(t *testing.T) {
	p := testLot(1)
	p.thieves.add(new(W))
	p.thieves.mu.Lock()
	defer p.thieves.mu.Unlock()
	done := make(chan struct{})
	var woke bool
	go func() {
		woke = p.wake(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wake(0) with a listed thief is waiting for the park lot's mutex")
	}
	if woke {
		t.Error("wake(0) reported a delivery")
	}
	if n := len(p.thieves.ws); n != 1 {
		t.Errorf("wake(0) took %d listed thieves, want 0", 1-n)
	}
}

// TestWakeDuringFinalSweep drives the one race of the hand-off park: a wake
// that lands while a thief's final sweep runs, and the sweep then finds a
// task. The thief leaves with the task, consumes the delivery the wake made
// (a later park on the same W sleeps until the next wake), and passes the
// wake on to a thief still listed, since it is busy with what it found.
func TestWakeDuringFinalSweep(t *testing.T) {
	p := testLot(2)
	wakeThenFind := func() (task, bool) {
		p.wake(1)
		return task{depth: 7}, true
	}
	noSweep := func() (task, bool) { return task{}, false }
	awaits := func(ch chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never woke", what)
		}
	}
	parkAsync := func(w *W) chan struct{} {
		ch := make(chan struct{})
		go func() {
			p.park(w, new(atomic.Int64), noSweep)
			close(ch)
		}()
		for deadline := time.Now().Add(5 * time.Second); p.parked() != 1; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("parked() = %d, want 1", p.parked())
			}
		}
		return ch
	}

	w := new(W)
	var sleeps atomic.Int64
	watchdog(t, 5*time.Second, func() {
		if got, ok := p.park(w, &sleeps, wakeThenFind); !ok || got.depth != 7 {
			t.Errorf("park = %+v, %v; want the task its final sweep found", got, ok)
		}
	})
	if got := p.parked(); got != 0 {
		t.Errorf("parked() = %d after park returned with a task, want 0", got)
	}
	if got := sleeps.Load(); got != 0 {
		t.Errorf("sleeps = %d for a final sweep that found a task, want 0", got)
	}
	again := parkAsync(w)
	select {
	case <-again:
		t.Fatal("the second park on the same W returned on the delivery of the first")
	case <-time.After(50 * time.Millisecond):
	}
	p.wake(1)
	awaits(again, "second park after wake(1)")

	// The same race with another thief asleep: the wake lands on the newest
	// listed thief, the one sweeping, which hands it to the sleeper.
	sleeper := parkAsync(new(W))
	watchdog(t, 5*time.Second, func() {
		if _, ok := p.park(new(W), new(atomic.Int64), wakeThenFind); !ok {
			t.Error("park with a final sweep that found a task returned none")
		}
	})
	awaits(sleeper, "sleeper after a wake taken by a thief whose sweep found work")
	if got := p.parked(); got != 0 {
		t.Errorf("parked() = %d after the sleeper was woken, want 0", got)
	}
}

// TestFinalSweepReturnsTask is the park lot's half of the lost-wakeup
// argument, made deterministic: a thief that has registered and whose
// final sweep meets a victim holding work leaves with one task instead of
// sleeping, is no longer counted as parked, and has given back the wait it
// counted on its hand-off when it listed itself.
func TestFinalSweepReturnsTask(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	victim := rt.workers[1]
	var fr Frame
	for i := 0; i < 8; i++ {
		victim.deque.Push(task{fn: runClosure, arg: closureArg(func(*W) {}), frame: &fr})
	}
	st := rt.takeStack(0)
	defer rt.pool.Put(0, st)
	w := rt.newW(rt.workers[0], st, rt.shard(0))
	watchdog(t, 10*time.Second, func() {
		if _, ok := rt.park.park(w, &w.stats.thiefParks, func() (task, bool) { return rt.steal(w, countStolen) }); !ok {
			t.Error("final sweep over a victim with 8 tasks came back empty")
		}
	})
	if got := w.stats.thiefParks.Load(); got != 0 {
		t.Errorf("thiefParks = %d: the thief slept although its final sweep found a task", got)
	}
	if got := victim.deque.Len(); got != 7 {
		t.Errorf("victim holds %d tasks after one steal from 8, want 7", got)
	}
	if got := fr.count.Load(); got != 1 {
		t.Errorf("frame counts %d stolen children after one steal, want 1", got)
	}
	if got := rt.park.parked(); got != 0 {
		t.Errorf("parked() = %d after park returned with a task, want 0", got)
	}
	watchdog(t, 5*time.Second, func() {
		if slot := w.wait(); slot != nil {
			t.Errorf("w.wait() delivered slot %d to a thief that never slept", slot.id)
		}
	})
}

// TestWideFanoutStaggered is the park lot's stress: rounds of staggered
// wide fan-outs on four workers, so that thieves run out of work and walk
// into the park lot while other workers are just publishing sixteen tasks
// at once. It dumps goroutines and fails instead of hanging.
func TestWideFanoutStaggered(t *testing.T) {
	const rounds, mids, fan = 10000, 4, 16
	spin := func(d time.Duration) {
		for t0 := time.Now(); time.Since(t0) < d; {
		}
	}
	var leaves atomic.Int64
	watchdog(t, 60*time.Second, func() {
		rt := NewRuntime(Config{Workers: 4, StackPages: 4096})
		rt.Run(func(w *W) {
			for round := 0; round < rounds; round++ {
				var fr Frame
				w.Init(&fr)
				for m := 0; m < mids; m++ {
					delay := time.Duration((round*7+m*13)%40) * 2 * time.Microsecond
					w.Fork(&fr, func(w *W) {
						spin(delay)
						var sub Frame
						w.Init(&sub)
						for i := 0; i < fan; i++ {
							w.Fork(&sub, func(*W) { spin(time.Microsecond); leaves.Add(1) })
						}
						w.Join(&sub)
					})
				}
				w.Join(&fr)
			}
		})
	})
	if got := leaves.Load(); got != rounds*mids*fan {
		t.Errorf("leaves = %d, want %d", got, rounds*mids*fan)
	}
}
