package bench

import (
	"math"
	"unsafe"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// Integrate is quadrature adaptive integration of f(x) = (x² + 1)·x over
// [0, N] with absolute tolerance 10⁻ᴹ (paper: N = 10⁴, ε = 10⁻⁹):
// recursive interval bisection forking one half and calling the other,
// exactly the Cilk-5 integrate benchmark. The exact integral N⁴/4 + N²/2
// verifies the numerics beyond the serial-vs-parallel checksum. The
// tolerance is an input because the tree size grows steeply as ε shrinks.
var Integrate = register(&Spec{
	Name:        "integrate",
	Description: "Quadrature adaptive integration",
	ArgDoc:      "N = upper limit of [0,N], M = -log10(tolerance)",
	Default:     Arg{N: 100, M: 2},
	Paper:       Arg{N: 10000, M: 9},
	Sim:         Arg{N: 120, M: 3},
	Serial: func(a Arg) uint64 {
		x2 := float64(a.N)
		v := integrateSerial(0, x2, integrandAt(0), integrandAt(x2), epsFor(a))
		return f64bits(v)
	},
	Parallel: func(w *core.W, a Arg) uint64 {
		x2 := float64(a.N)
		return f64bits(integrateArg(w, 0, x2, integrandAt(0), integrandAt(x2), epsFor(a)))
	},
	Tree: func(a Arg) invoke.Task {
		return integrateTree(0, float64(a.N), integrandAt(0), integrandAt(float64(a.N)), epsFor(a))
	},
})

// epsFor derives the tolerance from the argument; M = 0 means the paper's
// 10⁻⁹.
func epsFor(a Arg) float64 {
	m := a.M
	if m == 0 {
		m = 9
	}
	return math.Pow(10, -float64(m))
}

// integrandAt evaluates f(x) = (x² + 1)·x.
func integrandAt(x float64) float64 { return (x*x + 1.0) * x }

// integrateSerial is trapezoid refinement: split when the two-panel
// estimate differs from the one-panel estimate by more than the tolerance.
func integrateSerial(x1, x2, y1, y2, eps float64) float64 {
	xm := (x1 + x2) / 2
	ym := integrandAt(xm)
	whole := (y1 + y2) * (x2 - x1) / 2
	halves := (y1+ym)*(xm-x1)/2 + (ym+y2)*(x2-xm)/2
	if math.Abs(halves-whole) < eps {
		return halves
	}
	return integrateSerial(x1, xm, y1, ym, eps/2) +
		integrateSerial(xm, x2, ym, y2, eps/2)
}

// intgCtx is one half-interval's argument record; two of them plus the
// join frame fit in a single arena block (pointer-free payload, so the
// arena's unscanned-buffer contract is trivially satisfied).
type intgCtx struct {
	x1, x2, y1, y2, eps, res float64
}

const _ = uint(core.ScratchBytes - unsafe.Sizeof([2]intgCtx{}))

func intgArgTask(w *core.W, p unsafe.Pointer) {
	c := (*intgCtx)(p)
	c.res = integrateArg(w, c.x1, c.x2, c.y1, c.y2, c.eps)
}

// integrateArg is the bisection recursion on the zero-allocation ForkArg
// path. Combining pay[0].res + pay[1].res preserves the serial version's
// left + right operation order, so the checksum is identical.
func integrateArg(w *core.W, x1, x2, y1, y2, eps float64) float64 {
	xm := (x1 + x2) / 2
	ym := integrandAt(xm)
	whole := (y1 + y2) * (x2 - x1) / 2
	halves := (y1+ym)*(xm-x1)/2 + (ym+y2)*(x2-xm)/2
	if math.Abs(halves-whole) < eps {
		return halves
	}
	s := w.AcquireScratch()
	pay := (*[2]intgCtx)(s.Ptr())
	pay[0] = intgCtx{x1: x1, x2: xm, y1: y1, y2: ym, eps: eps / 2}
	pay[1] = intgCtx{x1: xm, x2: x2, y1: ym, y2: y2, eps: eps / 2}
	fr := s.Frame()
	w.Init(fr)
	w.ForkArgSized(fr, frameMedium, intgArgTask, unsafe.Pointer(&pay[0]))
	w.CallArgSized(frameMedium, intgArgTask, unsafe.Pointer(&pay[1]))
	w.Join(fr)
	v := pay[0].res + pay[1].res
	w.ReleaseScratch(s)
	return v
}

// integrateTree mirrors the parallel recursion. The adaptive split
// decision is recomputed, so the tree has the exact shape of the real run;
// nodes are keyed by interval only when intervals repeat (they do not), so
// no memoization — use scaled N for simulation.
func integrateTree(x1, x2, y1, y2, eps float64) invoke.Task {
	xm := (x1 + x2) / 2
	ym := integrandAt(xm)
	whole := (y1 + y2) * (x2 - x1) / 2
	halves := (y1+ym)*(xm-x1)/2 + (ym+y2)*(x2-xm)/2
	if math.Abs(halves-whole) < eps {
		return invoke.Task{Name: "integrate-leaf", Frame: frameMedium,
			Segs: []invoke.Seg{{Work: 48}}}
	}
	return invoke.Task{
		Name: "integrate", Frame: frameMedium,
		Segs: []invoke.Seg{
			{Work: 32, Fork: func() invoke.Task {
				return integrateTree(x1, xm, y1, ym, eps/2)
			}},
			{Work: 0, Call: func() invoke.Task {
				return integrateTree(xm, x2, ym, y2, eps/2)
			}},
			{Work: 16, Join: true},
		},
	}
}
