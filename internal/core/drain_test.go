package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestRootPanicRunsAbandonedChildren fences the drain behind a base-level
// task (W.drain): a task that forks children and panics before their Join
// leaves them on the deque of whoever ran it, where nobody waits for them
// and — if that was a thief — no sweep of its own looks. The goroutine that
// ran the task runs them before it completes it.
func TestRootPanicRunsAbandonedChildren(t *testing.T) {
	needCPUs(t, 2)
	rounds := 200
	if raceEnabled || testing.Short() {
		rounds = 40
	}
	// A root has no Join above it at all: without the drain its Job
	// completes over three queued tasks and Close drops them.
	for _, strategy := range []Strategy{StrategyFibril, StrategyTBB} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("root/%v/P%d", strategy, workers), func(t *testing.T) {
				rt := NewRuntime(Config{Workers: workers, Strategy: strategy})
				for r := 0; r < rounds; r++ {
					var ran [3]atomic.Int32
					var err error
					watchdog(t, 30*time.Second, func() {
						_, err = rt.RunErr(func(w *W) {
							fr := new(Frame)
							w.Init(fr)
							for i := range ran {
								w.Fork(fr, func(*W) { ran[i].Add(1) })
							}
							panic("abandon")
						})
					})
					// RunErr has returned: every child has run by now, not later.
					var tp *TaskPanic
					if !errors.As(err, &tp) || tp.Value != "abandon" {
						t.Fatalf("round %d: RunErr returned %v, want the root's panic", r, err)
					}
					for i := range ran {
						if got := ran[i].Load(); got != 1 {
							t.Fatalf("round %d: abandoned child %d had run %d times when RunErr returned, want 1", r, i, got)
						}
					}
					if q := rt.QueuedTasks(); q != 0 {
						t.Fatalf("round %d: %d tasks left in the deques", r, q)
					}
				}
				var out int64
				rt.Run(func(w *W) { out = gateFib(w, 15) })
				if want := fibSerial(15); out != want {
					t.Errorf("next job: gateFib(15) = %d, want %d", out, want)
				}
			})
		}
	}
	// A stolen task's children land in the thief's own deque. The root does
	// not join until they have run and, spinning, keeps the only other slot
	// busy: nobody but the thief itself can run them.
	t.Run("stolen/P2", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 2})
		for r := 0; r < rounds; r++ {
			var ran [3]atomic.Int32
			var total atomic.Int32
			var surfaced any
			watchdog(t, 10*time.Second, func() {
				rt.Run(func(w *W) {
					outer, inner := new(Frame), new(Frame)
					w.Init(outer)
					w.Fork(outer, func(cw *W) {
						cw.Init(inner)
						for i := range ran {
							cw.Fork(inner, func(*W) { ran[i].Add(1); total.Add(1) })
						}
						panic("abandon")
					})
					spinUntil(func() bool { return total.Load() == int32(len(ran)) })
					func() {
						defer func() { surfaced = recover() }()
						w.Join(outer)
					}()
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
	})
}
