//go:build unix

package core

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// The two halves of the idle protocol (DESIGN.md §5), each pinned by what a
// user would notice if it broke: a thief that parks too early makes every
// fan-out round pay a wake-up, and a thief that never parks makes an idle
// server cost a core. The file is unix-only for Getrusage.

// TestWarmThiefTakesRoundWithoutPark pins the search phase. Rounds of
// sixteen ~5 µs leaves with a few µs of serial work in between are the
// shape where the old sweep-count ladder lost: its thief parked ~2 µs into
// every gap and the next round's first fork paid ~80 µs to wake it, so the
// owner ran most leaves itself (3.4–4.0 steals per round of an ideal 8). A
// thief that searches through the gap is there when the round opens: it
// almost never sleeps and takes most of its half — a median of 6.4 over 57
// blocks of 2000 rounds (quartiles 5.9–6.7, none under 5.4), and 5.7 under
// the race detector (5.5–5.9, one block in 69 under 5). The mark is 5: clear
// of the ladder's 4.0, and under everything this runtime does on a host that
// is giving it two CPUs.
//
// What it measures is what the host lets two threads do. When something
// else holds a CPU the kernel runs thief and owner on the other one, where
// the thief's search only delays the owner until it parks — every round.
// So a block of rounds is judged between two readings of the yardstick,
// the first block that meets the marks passes, and the test fails only if
// no block did and the yardstick never saw the host take a CPU away. The
// rounds allocate nothing for the same reason: a collector cycle borrows a
// processor for its mark worker.
func TestWarmThiefTakesRoundWithoutPark(t *testing.T) {
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs")
	}
	const (
		attempts, rounds, fan = 5, 2000, 16
		leafSteps, gapSteps   = 3000, 1500 // ~5 µs and ~2.5 µs of xorshift at 2 GHz
	)
	hostRatio := func() float64 {
		yardstick(2) // bring the second CPU out of idle before timing it
		return float64(yardstick(2)) / float64(yardstick(1))
	}
	hostOK := true
	for a := 0; a < attempts; a++ {
		host := hostRatio()
		st := NewRuntime(Config{Workers: 2}).Run(func(w *W) {
			var fr Frame
			var leaves [fan]spinLeaf
			for round := 0; round < rounds; round++ {
				w.Init(&fr)
				for i := range leaves {
					leaves[i].steps = leafSteps
					w.ForkArg(&fr, spinLeafTask, unsafe.Pointer(&leaves[i]))
				}
				w.Join(&fr)
				gap := spinLeaf{steps: gapSteps}
				spinLeafTask(w, unsafe.Pointer(&gap))
			}
		})
		host = max(host, hostRatio())
		perRound := float64(st.Steals) / rounds
		t.Logf("%d rounds of %d: %.1f steals/round, %d thief parks; two plain goroutines take %.2fx one",
			rounds, fan, perRound, st.ThiefParks, host)
		if st.ThiefParks <= rounds/20 && perRound >= 5 {
			return
		}
		hostOK = hostOK && host <= 1.2
	}
	if !hostOK {
		t.Skip("the host is not giving this process two CPUs (see the yardstick ratios above)")
	}
	t.Errorf("no block of %d rounds had ThiefParks <= 5%% of rounds and >= 5 steals per round of %d leaves (ideal 8): "+
		"the thief goes to sleep inside microsecond gaps or is late to the round", rounds, fan)
}

// spinLeaf is a ForkArg leaf of pure register work: steps rounds of
// xorshift64, no clock read and no shared store but its own result.
type spinLeaf struct {
	steps int
	out   uint64
}

func spinLeafTask(_ *W, p unsafe.Pointer) {
	l := (*spinLeaf)(p)
	x := uint64(l.steps) | 1
	for s := l.steps; s > 0; s-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	l.out = x
}

// processCPU is the user+system CPU time this process has consumed.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleRuntimeGoesQuiet pins the other half: the search phase is
// bounded. After the last job of a serving runtime every worker is asleep
// on the lot within milliseconds, and from then on the process burns no
// CPU — including when there are four times as many workers as processors,
// where searching thieves would otherwise keep each other awake.
func TestIdleRuntimeGoesQuiet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, workers := range []int{2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			rt := NewRuntime(Config{Workers: workers, StackPages: 4096})
			rt.Start()
			defer rt.Close(context.Background())
			for i := 0; i < 50; i++ {
				var out int64
				j := rt.Submit(func(w *W) { out = gateFib(w, 12) })
				if err := j.Err(); err != nil {
					t.Fatal(err)
				}
				if want := fibSerial(12); out != want {
					t.Fatalf("gateFib(12) = %d, want %d", out, want)
				}
			}
			waitParked(t, rt, workers, 10*time.Millisecond)
			runtime.GC() // not billed to the idle window below
			cpu0 := processCPU(t)
			time.Sleep(200 * time.Millisecond)
			if used := processCPU(t) - cpu0; used >= 20*time.Millisecond {
				t.Errorf("idle runtime used %v of CPU in 200 ms, want < 20 ms", used)
			}
			if got := rt.ParkedThieves(); got != workers {
				t.Errorf("%d/%d thieves parked after the idle window", got, workers)
			}
		})
	}
}
