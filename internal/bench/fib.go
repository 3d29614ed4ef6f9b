package bench

import (
	"unsafe"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// Fib is the recursive Fibonacci benchmark: no real work, pure fork/join
// overhead — the paper's most extreme stress of calling-convention cost
// (Figure 3 shows the largest runtime-to-runtime gaps on fib).
// N is the Fibonacci index (paper: 42).
//
// Parallel runs on the zero-allocation ForkArg path.
var Fib = register(&Spec{
	Name:        "fib",
	Description: "Recursive Fibonacci",
	ArgDoc:      "N = Fibonacci index",
	Default:     Arg{N: 27},
	Paper:       Arg{N: 42},
	Sim:         Arg{N: 28},
	Serial:      func(a Arg) uint64 { return uint64(fibSerial(a.N)) },
	Parallel: func(w *core.W, a Arg) uint64 {
		return uint64(fibArg(w, a.N))
	},
	Tree: func(a Arg) invoke.Task { return fibTree(a.N) },
})

func fibSerial(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

// fibCtx is the argument record of one fib child; two of them plus the
// join frame fit in a single arena block.
type fibCtx struct {
	n   int
	res int64
}

// Both children's records must fit the block's payload.
const _ = uint(core.ScratchBytes - unsafe.Sizeof([2]fibCtx{}))

// fibArgTask is the package-level trampoline carried by the fork: a
// static code pointer plus a *fibCtx, no closure.
func fibArgTask(w *core.W, p unsafe.Pointer) {
	c := (*fibCtx)(p)
	c.res = fibArg(w, c.n)
}

// fibArg is Listing 1's parfib on the ForkArg fast path: the frame and
// both argument records live in one Scratch block, so the steady state
// performs no heap allocation at all. The payload holds no pointers, so
// the arena's unscanned-buffer contract is trivially satisfied; the
// block is released only after Join has quiesced it (fib cannot panic,
// so the no-release-on-unwind rule is moot).
func fibArg(w *core.W, n int) int64 {
	if n < 2 {
		return int64(n)
	}
	s := w.AcquireScratch()
	pay := (*[2]fibCtx)(s.Ptr())
	pay[0].n = n - 1
	pay[1].n = n - 2
	fr := s.Frame()
	w.Init(fr)
	w.ForkArgSized(fr, frameSmall, fibArgTask, unsafe.Pointer(&pay[0]))
	w.CallArgSized(frameSmall, fibArgTask, unsafe.Pointer(&pay[1]))
	w.Join(fr)
	res := pay[0].res + pay[1].res
	w.ReleaseScratch(s)
	return res
}

// fibTree mirrors fibArg. Every node carries ~20 units (≈ns) of real
// work — the call, branch, and add a serial fib invocation costs — which is
// what makes fork-path overhead ratios on fib match Figure 3. Keys enable
// memoized analysis up to the paper's fib(42).
func fibTree(n int) invoke.Task {
	if n < 2 {
		return invoke.Task{
			Name: "fib-leaf", Frame: frameSmall, Key: uint64(n) + 1,
			Segs: []invoke.Seg{{Work: 20}},
		}
	}
	return invoke.Task{
		Name: "fib", Frame: frameSmall, Key: uint64(n) + 1,
		Segs: []invoke.Seg{
			{Work: 10, Fork: func() invoke.Task { return fibTree(n - 1) }},
			{Work: 0, Call: func() invoke.Task { return fibTree(n - 2) }},
			{Work: 10, Join: true},
		},
	}
}
