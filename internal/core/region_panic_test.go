package core

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

// This file fences the panic path of Join's drain (childPanicked): one
// deferred recover covers a whole fork-join region, so what exec's per-task
// recover did for every child — restore the bookkeeping, record the panic on
// the child's own frame, let the siblings run — has to come out the same.

// catchAny runs f and returns what it panicked with, nil if it returned.
func catchAny(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// forRegionConfigs runs body under every join discipline at Workers=1, where
// every child is drained inline by its parent's Join, and at Workers=4, where
// thieves take some through exec.
func forRegionConfigs(t *testing.T, workers []int, body func(t *testing.T, rt *Runtime)) {
	for _, s := range []Strategy{StrategyFibril, StrategyTBB} {
		for _, p := range workers {
			t.Run(fmt.Sprintf("%v/P%d", s, p), func(t *testing.T) {
				body(t, NewRuntime(Config{Workers: p, Strategy: s}))
			})
		}
	}
}

// inChild runs body as a forked child of a frame of the root, so that the
// region under test starts from a non-nil w.frame and a non-zero depth.
func inChild(rt *Runtime, body func(w *W)) {
	rt.Run(func(w *W) {
		var outer Frame
		w.Init(&outer)
		w.Fork(&outer, body)
		w.Join(&outer)
	})
}

func TestChildPanicMidDrainRunsSiblings(t *testing.T) {
	forRegionConfigs(t, []int{1, 4}, func(t *testing.T, rt *Runtime) {
		for round := 0; round < 50; round++ {
			var ran [4]atomic.Int32
			inChild(rt, func(w *W) {
				var fr Frame
				w.Init(&fr)
				for i := range ran {
					w.Fork(&fr, func(*W) { ran[i].Add(1) })
				}
				// Forked last, popped first: the other four are still on
				// the deque when it fails.
				w.Fork(&fr, func(*W) { panic("mid-drain") })
				depth, frame, top := w.Depth(), w.frame, w.stack.Bytes()
				v := catchAny(func() { w.Join(&fr) })
				if tp, ok := v.(*TaskPanic); !ok || tp.Value != "mid-drain" {
					t.Errorf("Join recovered %v, want the child's *TaskPanic", v)
				}
				for i := range ran {
					if got := ran[i].Load(); got != 1 {
						t.Errorf("sibling %d had run %d times when Join re-raised, want 1", i, got)
					}
				}
				if w.Depth() != depth || w.frame != frame || w.stack.Bytes() != top {
					t.Errorf("after the Join: depth %d frame %p stack %d, before it %d %p %d",
						w.Depth(), w.frame, w.stack.Bytes(), depth, frame, top)
				}
				w.Join(&fr) // the failure was taken; the region is reusable
			})
			if t.Failed() {
				return
			}
		}
	})
}

func TestFirstInlinePanicWins(t *testing.T) {
	forRegionConfigs(t, []int{1, 4}, func(t *testing.T, rt *Runtime) {
		inChild(rt, func(w *W) {
			var fr Frame
			w.Init(&fr)
			w.Fork(&fr, func(*W) { panic("forked first") })
			w.Fork(&fr, func(*W) { panic("forked last") })
			tp, _ := catchAny(func() { w.Join(&fr) }).(*TaskPanic)
			switch {
			case tp == nil:
				t.Error("Join did not re-raise a *TaskPanic")
			case rt.Config().Workers == 1 && tp.Value != "forked last":
				// Alone, the owner pops both, the last one forked first.
				t.Errorf("Join re-raised %q, want the first child popped", tp.Value)
			case tp.Value != "forked first" && tp.Value != "forked last":
				t.Errorf("Join re-raised %v", tp.Value)
			}
			if fr.panicked.Load() != nil {
				t.Error("the frame kept a failure after its Join re-raised one")
			}
		})
	})
}

// A panic unwinds past an inner region's Join and leaves that region's child
// on the deque; the enclosing Join pops it with its own children. Its failure
// belongs to the abandoned frame.
func TestPoppedStrangerPanicsOnItsOwnFrame(t *testing.T) {
	forRegionConfigs(t, []int{1, 4}, func(t *testing.T, rt *Runtime) {
		inChild(rt, func(w *W) {
			f, g := new(Frame), new(Frame)
			var ranOwn, strangerStarted atomic.Bool
			w.Init(f)
			w.Fork(f, func(*W) { ranOwn.Store(true) })
			abandoned := catchAny(func() {
				w.Call(func(w *W) {
					w.Init(g)
					w.Fork(g, func(*W) { strangerStarted.Store(true); panic("stranger") })
					panic("abandon g")
				})
			})
			if abandoned != "abandon g" {
				t.Errorf("the Call panicked with %v", abandoned)
				return
			}
			if v := catchAny(func() { w.Join(f) }); v != nil {
				t.Errorf("Join(f) panicked with %v: a task of another frame failed, none of f's", v)
			}
			// A thief that took the stranger records its failure before it
			// uncounts it.
			spinUntil(func() bool { return strangerStarted.Load() && g.count.Load() == 0 })
			if !ranOwn.Load() {
				t.Error("f's own child did not run")
			}
			if tp := g.panicked.Load(); tp == nil || tp.Value != "stranger" {
				t.Errorf("the abandoned frame recorded %v, want its child's panic", tp)
			}
		})
	})
}

func TestGrandchildPanicKeepsItsIdentity(t *testing.T) {
	forRegionConfigs(t, []int{1, 4}, func(t *testing.T, rt *Runtime) {
		var atInner atomic.Pointer[TaskPanic]
		var atOuter any
		rt.Run(func(w *W) {
			var outer Frame
			w.Init(&outer)
			w.Fork(&outer, func(w *W) {
				var inner Frame
				w.Init(&inner)
				w.Fork(&inner, func(*W) { panic("deep") })
				v := catchAny(func() { w.Join(&inner) })
				tp, _ := v.(*TaskPanic)
				atInner.Store(tp)
				panic(v)
			})
			atOuter = catchAny(func() { w.Join(&outer) })
		})
		if tp := atInner.Load(); tp == nil || tp.Value != "deep" || atOuter != any(tp) {
			t.Errorf("the inner Join re-raised %v, the outer one %v: want one *TaskPanic, twice", tp, atOuter)
		}
	})
}

func TestChildPanicNil(t *testing.T) {
	forRegionConfigs(t, []int{1, 4}, func(t *testing.T, rt *Runtime) {
		inChild(rt, func(w *W) {
			var fr Frame
			w.Init(&fr)
			var null any
			w.Fork(&fr, func(*W) { panic(null) })
			tp, _ := catchAny(func() { w.Join(&fr) }).(*TaskPanic)
			if tp == nil {
				t.Error("Join did not re-raise a *TaskPanic")
				return
			}
			if _, ok := tp.Value.(*runtime.PanicNilError); !ok {
				t.Errorf("panic(nil) in a child surfaced as %T, want *runtime.PanicNilError", tp.Value)
			}
		})
	})
}

// A child whose frame does not fit the stack fails in the prologue its parent
// runs for it: the parent's failure, raised out of the parent's Join as it
// is, not a child's to be recorded on the frame. Workers=1 only — the same
// overflow on a thief's stack is the thief's, and nobody recovers there.
func TestChildFrameOverflowIsTheParents(t *testing.T) {
	forRegionConfigs(t, []int{1}, func(t *testing.T, rt *Runtime) {
		inChild(rt, func(w *W) {
			var fr Frame
			var ran atomic.Bool
			w.Init(&fr)
			w.ForkSized(&fr, 2*rt.Config().StackPages*4096, func(*W) { ran.Store(true) })
			depth, frame, top := w.Depth(), w.frame, w.stack.Bytes()
			v := catchAny(func() { w.Join(&fr) })
			if msg, ok := v.(string); !ok || !strings.Contains(msg, "stack overflow") {
				t.Errorf("Join panicked with %v, want the stack's overflow", v)
			}
			if ran.Load() || fr.panicked.Load() != nil {
				t.Errorf("child ran: %v; recorded on the frame: %v", ran.Load(), fr.panicked.Load())
			}
			if w.Depth() != depth || w.frame != frame || w.stack.Bytes() != top {
				t.Errorf("after the Join: depth %d frame %p stack %d, before it %d %p %d",
					w.Depth(), w.frame, w.stack.Bytes(), depth, frame, top)
			}
			w.Join(&fr) // the child is gone from the deque and from the tally
		})
	})
}

// A Join with nothing forked since Init is a load, a compare and the failure
// check: no deferred function, no allocation.
func TestEmptyJoinIsFree(t *testing.T) {
	rt := NewRuntime(Config{Workers: 1})
	rt.Run(func(w *W) {
		var fr Frame
		if n := testing.AllocsPerRun(1000, func() { w.Init(&fr); w.Join(&fr) }); n != 0 {
			t.Errorf("Init + Join of an empty region: %v allocations, want 0", n)
		}
		fr.panicked.Store(&TaskPanic{Value: "left over"})
		if tp, _ := catchAny(func() { w.Join(&fr) }).(*TaskPanic); tp == nil || tp.Value != "left over" {
			t.Errorf("an empty Join re-raised %v, want the frame's recorded failure", tp)
		}
	})
}

// The task record holds a child's frame size in an int32. A size that does
// not survive the conversion used to be forked as whatever was left of it —
// 1<<32+8 ran its child on an 8-byte frame, 1<<31 failed later, as a negative
// size, inside the parent's Join — where the same size through Call panics
// on the spot.
func TestForkSizeMustFitTaskRecord(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("needs an int wider than the record's int32")
	}
	one := 1
	rt := NewRuntime(Config{Workers: 1})
	rt.Run(func(w *W) {
		for _, size := range []int{one<<32 + 8, one << 31, -8} {
			var fr Frame
			var ran bool
			w.Init(&fr)
			top := w.stack.Bytes()
			v := catchAny(func() { w.ForkSized(&fr, size, func(*W) { ran = true }) })
			if msg, ok := v.(string); !ok || !strings.Contains(msg, strconv.Itoa(size)) {
				t.Errorf("ForkSized(%d) panicked with %v, want a panic naming the size", size, v)
			}
			if v := catchAny(func() { w.Join(&fr) }); v != nil || ran || fr.pending != 0 {
				t.Errorf("ForkSized(%d): Join panicked with %v, child ran: %v, pending %d: the fork should not have happened",
					size, v, ran, fr.pending)
			}
			v = catchAny(func() { w.CallSized(size, func(*W) { ran = true }) })
			if msg, ok := v.(string); !ok || !strings.Contains(msg, strconv.Itoa(size)) || ran {
				t.Errorf("CallSized(%d) panicked with %v, ran: %v, want a panic naming the size", size, v, ran)
			}
			if got := w.stack.Bytes(); got != top {
				t.Errorf("size %d: watermark %d, was %d", size, got, top)
			}
		}
		// The largest size the record holds is forked as it is, and fails
		// as an overflow of the 1 MB stack.
		var fr Frame
		w.Init(&fr)
		w.ForkSized(&fr, 1<<31-1, func(*W) {})
		if msg, _ := catchAny(func() { w.Join(&fr) }).(string); !strings.Contains(msg, strconv.Itoa(1<<31-1)) {
			t.Errorf("Join of a 2 GB child panicked with %q, want an overflow naming the size", msg)
		}
	})
}

// TestFramesPerForkLevel pins the shape of an unstolen node: between the body
// of a parent and the body of the child it runs inline there is one physical
// frame of this package — Join on the fork path, CallArgSized on the call
// path. Inlined functions have no frame of their own (Func is nil). A frame
// is what a level costs beyond its instructions: a return address to predict
// 150 levels deep, a prologue, a stack check.
func TestFramesPerForkLevel(t *testing.T) {
	const levels = 6
	for _, path := range []string{"fork", "call"} {
		t.Run(path, func(t *testing.T) {
			c := &chainCtx{call: path == "call", level: levels}
			NewRuntime(Config{Workers: 1}).Run(func(w *W) { chainNode(w, unsafe.Pointer(c)) })
			// Between consecutive bodies, innermost first.
			var between [][]string
			var cur []string
			bodies := 0
			for _, fn := range c.stack {
				if strings.HasSuffix(fn, ".chainNode") {
					if bodies++; bodies > 1 {
						between = append(between, cur)
					}
					cur = nil
				} else if strings.HasPrefix(fn, "fibril/internal/core.") {
					cur = append(cur, fn)
				}
			}
			if bodies != levels+1 {
				t.Fatalf("saw %d bodies on the leaf's stack, want %d:\n%s", bodies, levels+1, strings.Join(c.stack, "\n"))
			}
			want := "fibril/internal/core.(*W).Join"
			if c.call {
				want = "fibril/internal/core.(*W).CallArgSized"
			}
			for i, fns := range between {
				if len(fns) != 1 || fns[0] != want {
					t.Errorf("level %d: %d frames of this package between two bodies, want only %s:\n%s",
						i, len(fns), want, strings.Join(fns, "\n"))
				}
			}
		})
	}
}

// chainCtx is the argument of chainNode: how many levels are left, which way
// down, and — written by the leaf — the physical frames on its stack.
type chainCtx struct {
	call  bool
	level int
	stack []string
}

// chainNode forks (or calls) itself one level down and joins; the leaf
// records its stack.
func chainNode(w *W, p unsafe.Pointer) {
	c := (*chainCtx)(p)
	if c.level == 0 {
		pcs := make([]uintptr, 256)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
		for {
			fr, more := frames.Next()
			if fr.Func != nil { // a frame of its own, not inlined into its caller's
				c.stack = append(c.stack, fr.Function)
			}
			if !more {
				return
			}
		}
	}
	c.level--
	if c.call {
		w.CallArg(chainNode, p)
		return
	}
	var fr Frame
	w.Init(&fr)
	w.ForkArg(&fr, chainNode, p)
	w.Join(&fr)
}
