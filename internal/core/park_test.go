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

// waitParked blocks until n thieves are parked — n slots free — or the
// deadline passes.
func waitParked(t *testing.T, rt *Runtime, n int, deadline time.Duration) {
	t.Helper()
	start := time.Now()
	for rt.ParkedThieves() < n {
		if time.Since(start) > deadline {
			t.Fatalf("only %d/%d thieves parked after %v", rt.ParkedThieves(), n, deadline)
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
						for rt.ParkedThieves() == 0 && time.Now().Before(deadline) {
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
			if rt.ParkedThieves() == len(rt.workers)-1 {
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

// waitAsync waits on w's hand-off on a goroutine of its own and sends what
// the wait returns: the slot delivered to w, or nil for exit.
func waitAsync(w *W) chan *worker {
	ch := make(chan *worker, 1)
	go func() { ch <- w.wait() }()
	return ch
}

// delivered fails the test unless ch, from waitAsync, yields within 5 s, and
// returns what it yields.
func delivered(t *testing.T, ch chan *worker, who string) *worker {
	t.Helper()
	select {
	case slot := <-ch:
		return slot
	case <-time.After(5 * time.Second):
		t.Fatalf("%s was never delivered to", who)
		return nil
	}
}

// asleep fails the test if ch, from waitAsync, yields within 50 ms.
func asleep(t *testing.T, ch chan *worker, who string) {
	t.Helper()
	select {
	case slot := <-ch:
		t.Fatalf("%s returned from its wait with slot %v instead of sleeping", who, slot)
	case <-time.After(50 * time.Millisecond):
	}
}

// noWork is the peek of a lot with nothing published.
func noWork() bool { return false }

// TestWakeTokenCapNoStaleTokens unit-tests the delivery accounting that
// makes wake-one safe: a wake burst larger than the free slots gives out what
// is free and leaves nothing behind, or a thief parking later would sail
// straight through its wait and busy-loop on an empty system. Each sleeper is
// a bare W parked on a slot of an unstarted runtime, as a thief parks once
// its stack is back in the pool, and every slot goes to a listed W: no
// goroutine is started.
func TestWakeTokenCapNoStaleTokens(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	p := rt.park
	park := func(w *W, slot *worker) chan *worker {
		w.slot = slot
		p.park(w, new(atomic.Int64), noWork)
		return waitAsync(w)
	}
	a, b := new(W), new(W)

	// Phase 1: one parked, wake(8). The burst gives out the one free slot,
	// to the one listed W, and nothing is left for anyone after it.
	first := park(a, rt.workers[0])
	if !rt.wake(8) {
		t.Error("wake(8) with a slot free reported no delivery")
	}
	if got := delivered(t, first, "a after wake(8)"); got != rt.workers[0] {
		t.Errorf("a was delivered %v, want its own slot back", got)
	}
	if rt.wake(1) {
		t.Error("wake(1) with no slot free reported a delivery")
	}

	// Phase 2: a parks again and must actually sleep. If phase 1 had left a
	// surplus delivery, its wait would return at once.
	second := park(a, rt.workers[0])
	asleep(t, second, "a, parked after the wake(8) burst")
	rt.wake(1)
	delivered(t, second, "a after wake(1)")

	// Phase 3: a burst sized to the free slots gives each to a listed W and,
	// like the larger burst, leaves no residue.
	ga, gb := park(a, rt.workers[0]), park(b, rt.workers[1])
	rt.wake(2)
	if sa, sb := delivered(t, ga, "a after wake(2)"), delivered(t, gb, "b after wake(2)"); sa == sb {
		t.Errorf("wake(2) delivered slot %v to both", sa)
	}
	late := park(a, rt.workers[0])
	asleep(t, late, "a late parker, after wake(2)")
	p.close()
	if got := delivered(t, late, "the late parker after close"); got != nil {
		t.Errorf("close delivered slot %v, want nil (exit)", got)
	}
	if n := p.starts.Load(); n != 0 {
		t.Errorf("%d goroutines started with a W listed for every slot, want 0", n)
	}
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
// job — returns before it looks at the lot, even while a slot is free. The
// test holds the lot's mutex, so a wake(0) that took it would block; the
// channel bounds the wait, so that regression fails instead of hanging.
func TestWakeZeroTakesNoLock(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	p := rt.park
	p.park(&W{slot: rt.workers[0]}, new(atomic.Int64), noWork)
	p.mu.Lock()
	defer p.mu.Unlock()
	done := make(chan struct{})
	var woke bool
	go func() {
		woke = rt.wake(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wake(0) with a slot free is waiting for the park lot's mutex")
	}
	if woke {
		t.Error("wake(0) reported a delivery")
	}
	if len(p.free) != 1 || len(p.ws) != 1 {
		t.Errorf("wake(0) left %d free slots and %d listed, want 1 and 1", len(p.free), len(p.ws))
	}
}

// TestWakeDuringFinalSweep drives the races of the park, through its peek:
// the parker has freed its slot and listed itself, and a publisher's wake
// lands before the peek has looked.
//
//   - (a) The wake gives the parker its own slot back: the parker's wait
//     returns it at once, whether the peek then saw nothing or saw work —
//     in which case it takes no second slot.
//   - (c) A goroutine listed after the parker — a finisher that has handed
//     its slot to a resumed parent — gets the only free slot, and the peek
//     then sees the task: the parker sleeps, since a slot it could take back
//     is gone, and the other goroutine's first sweep takes the task, which
//     the peek left where it was.
//
// A parker that peeked before freeing its slot fails both: the wake finds no
// slot free. A peek that claimed the task fails (c).
func TestWakeDuringFinalSweep(t *testing.T) {
	t.Run("a", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 2})
		p := rt.park
		w := &W{slot: rt.workers[0]}
		var sleeps atomic.Int64
		p.park(w, &sleeps, func() bool { rt.wake(1); return false })
		if got := delivered(t, waitAsync(w), "the parker a wake reached during its peek"); got != rt.workers[0] {
			t.Errorf("the parker was delivered %v, want its own slot", got)
		}
		// The same with a sleeper listed first, and a peek that sees work.
		sleeper := &W{slot: rt.workers[1]}
		p.park(sleeper, &sleeps, noWork)
		slept := waitAsync(sleeper)
		w.slot = rt.workers[0]
		p.park(w, &sleeps, func() bool { rt.wake(1); return true })
		if got := delivered(t, waitAsync(w), "the parker a wake reached before its peek saw work"); got != rt.workers[0] {
			t.Errorf("the parker was delivered %v, want its own slot", got)
		}
		if len(p.free) != 1 || len(p.ws) != 1 {
			t.Errorf("after the parker left: %d free slots and %d listed, want the sleeper's 1 and 1", len(p.free), len(p.ws))
		}
		asleep(t, slept, "the sleeper")
		p.close()
		delivered(t, slept, "the sleeper after close")
	})
	t.Run("c", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 2})
		p, victim := rt.park, rt.workers[1]
		var fr Frame
		victim.deque.Push(task{fn: runClosure, arg: closureArg(func(*W) {}), frame: &fr})
		w := rt.newW(rt.workers[0], nil)
		other := rt.newW(rt.workers[0], nil)
		var sleeps atomic.Int64
		p.park(w, &sleeps, func() bool {
			p.list(other)
			rt.wake(1)
			return rt.hasWork()
		})
		slept := waitAsync(w)
		slot := delivered(t, waitAsync(other), "the goroutine listed after the parker")
		asleep(t, slept, "the parker whose peek saw work with no slot free")
		if slot != rt.workers[0] || sleeps.Load() != 0 {
			t.Fatalf("the other goroutine got slot %v, parks counted %d; want the parker's slot and 0", slot, sleeps.Load())
		}
		if n := victim.deque.Len(); n != 1 {
			t.Fatalf("the victim holds %d tasks after the peek, want 1: a peek claims nothing", n)
		}
		other.slot = slot
		if _, ok := rt.steal(other, countStolen); !ok {
			t.Error("the first sweep of the goroutine given the slot found nothing")
		}
		p.close()
		if got := delivered(t, slept, "the parker after close"); got != nil {
			t.Errorf("close delivered slot %v to the parker, want nil (exit)", got)
		}
	})
}

// TestFinalSweepReturnsTask is case (b) of the park's races, made
// deterministic: a parker whose peek meets a victim holding work takes its
// slot back and leaves, unslept — its wait returns the slot at once, the
// lot's free list is back to its length before the park, and nothing was
// claimed: the task is there for the sweep the parker runs next.
func TestFinalSweepReturnsTask(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2})
	victim := rt.workers[1]
	var fr Frame
	for i := 0; i < 8; i++ {
		victim.deque.Push(task{fn: runClosure, arg: closureArg(func(*W) {}), frame: &fr})
	}
	w := rt.newW(rt.workers[0], nil)
	rt.park.park(w, &w.slot.thiefParks, rt.hasWork)
	if got := delivered(t, waitAsync(w), "a parker whose peek saw work"); got != rt.workers[0] {
		t.Errorf("the parker was delivered %v, want its own slot back", got)
	}
	if got := w.slot.thiefParks.Load(); got != 0 {
		t.Errorf("thiefParks = %d: the thief slept although its peek saw work", got)
	}
	if got := victim.deque.Len(); got != 8 || fr.count.Load() != 0 {
		t.Errorf("victim holds %d tasks, frame counts %d stolen: the peek claimed work", got, fr.count.Load())
	}
	if f, l := len(rt.park.free), len(rt.park.ws); f != 0 || l != 0 {
		t.Errorf("%d slots free and %d listed after the parker left, want 0 and 0", f, l)
	}
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
