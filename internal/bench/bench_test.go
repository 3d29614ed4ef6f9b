package bench

import (
	"math"
	"testing"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// smallArg shrinks the default input further so the full strategy matrix
// stays fast under `go test`.
func smallArg(s *Spec) Arg {
	a := s.Default
	switch s.Name {
	case "fib":
		a.N = 16
	case "integrate":
		a = Arg{N: 30, M: 2}
	case "knapsack":
		a.N = 16
	case "nqueens":
		a.N = 8
	case "quicksort":
		a.N = 60_000
	case "matmul", "lu", "cholesky":
		a.N = 96
	case "rectmul":
		a.N = 96
	case "strassen":
		a.N = 128
	case "fft":
		a.N = 12
	case "heat":
		a = Arg{N: 64, M: 6}
	case "adversarial":
		a = Arg{N: 24, M: 16}
	}
	return a
}

func TestRegistryComplete(t *testing.T) {
	// The paper's 12 benchmarks plus the adversarial workload.
	want := []string{
		"adversarial", "cholesky", "fft", "fib", "heat", "integrate",
		"knapsack", "lu", "matmul", "nqueens", "quicksort", "rectmul",
		"strassen",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d benchmarks %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, s := range All() {
		if s.Serial == nil || s.Parallel == nil || s.Tree == nil {
			t.Errorf("%s: missing a face", s.Name)
		}
		if s.Paper.N <= s.Default.N && s.Name != "heat" {
			t.Errorf("%s: paper input %v not larger than default %v", s.Name, s.Paper, s.Default)
		}
	}
}

func TestSerialParallelChecksumsMatch(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a := smallArg(s)
			want := s.Serial(a)
			if want == 0 {
				t.Fatalf("serial checksum is the poison value 0")
			}
			for _, workers := range []int{1, 4} {
				rt := core.NewRuntime(core.Config{Workers: workers, StackPages: 4096})
				var got uint64
				rt.Run(func(w *core.W) { got = s.Parallel(w, a) })
				if got != want {
					t.Errorf("P=%d: parallel checksum %#x != serial %#x", workers, got, want)
				}
			}
		})
	}
}

func TestParallelUnderEveryStrategy(t *testing.T) {
	// Strategy must never change results — only scheduling.
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a := smallArg(s)
			want := s.Serial(a)
			for _, strat := range core.Strategies() {
				rt := core.NewRuntime(core.Config{
					Workers: 4, Strategy: strat, StackPages: 4096,
				})
				var got uint64
				rt.Run(func(w *core.W) { got = s.Parallel(w, a) })
				if got != want {
					t.Errorf("%v: checksum %#x != serial %#x", strat, got, want)
				}
			}
		})
	}
}

func TestTreesAreWellFormed(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := invoke.Analyze(s.Tree(smallArg(s)))
			if m.Work <= 0 {
				t.Errorf("tree work = %d", m.Work)
			}
			if m.Span <= 0 || m.Span > m.Work {
				t.Errorf("tree span = %d with work %d", m.Span, m.Work)
			}
			if m.Forks == 0 {
				t.Errorf("tree has no forks")
			}
			if m.FibrilDepth < 1 {
				t.Errorf("Fibril depth = %d", m.FibrilDepth)
			}
			if m.MaxStackBytes <= 0 {
				t.Errorf("S1 = %d bytes", m.MaxStackBytes)
			}
		})
	}
}

func TestSimInputsHaveParallelism(t *testing.T) {
	// The simulator sweeps P up to 72 on the Sim inputs, so they need real
	// parallelism — except the benchmarks whose parallelism is
	// intrinsically low and small at any scaled input: quicksort is
	// Θ(lg n) because the partition runs on the spine, and knapsack's and
	// adversarial's trees are deliberately skewed.
	minWant := map[string]float64{
		"quicksort": 4, "knapsack": 3, "adversarial": 4,
	}
	for _, s := range All() {
		m := invoke.Analyze(s.Tree(s.Sim))
		want := 20.0
		if v, ok := minWant[s.Name]; ok {
			want = v
		}
		if p := m.Parallelism(); p < want {
			t.Errorf("%s: sim-input parallelism %.1f < %.0f (T1=%d T∞=%d)",
				s.Name, p, want, m.Work, m.Span)
		}
		t.Logf("%-12s sim=%-12v T1=%-12d T∞=%-9d parallelism=%.1f tasks=%d D=%d",
			s.Name, s.Sim, m.Work, m.Span, m.Parallelism(), m.Tasks, m.FibrilDepth)
	}
}

func TestPaperTreeMetricsViaMemoization(t *testing.T) {
	// The structurally-keyed trees must analyze at full paper scale.
	for _, name := range []string{"fib", "matmul", "strassen", "lu", "cholesky", "fft"} {
		s := Get(name)
		m := invoke.Analyze(s.Tree(s.Paper))
		if m.Work <= 0 || m.Span <= 0 {
			t.Errorf("%s: paper-size analysis failed: %+v", name, m)
		}
		t.Logf("%s paper input %v: %v D=%d", name, s.Paper, m, m.FibrilDepth)
	}
}

func TestFibTreeDepthMatchesPaperTable3(t *testing.T) {
	m := invoke.Analyze(Fib.Tree(Arg{N: 42}))
	if m.FibrilDepth != 41 {
		t.Errorf("fib(42) D = %d, paper Table 3 lists 41", m.FibrilDepth)
	}
}

func TestIntegrateAgainstClosedForm(t *testing.T) {
	// ∫₀ᴺ (x²+1)x dx = N⁴/4 + N²/2; the adaptive refinement keeps the
	// total error near the requested absolute tolerance.
	a := Arg{N: 40, M: 3}
	x2 := float64(a.N)
	got := integrateSerial(0, x2, integrandAt(0), integrandAt(x2), epsFor(a))
	want := x2*x2*x2*x2/4 + x2*x2/2
	if d := math.Abs(got - want); d > 0.05 {
		t.Errorf("integrate(%v) = %.6f, closed form %.6f (|diff| %.2g)", a, got, want, d)
	}
}

func TestNQueensKnownCounts(t *testing.T) {
	known := map[int]uint64{4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724}
	for n, want := range known {
		if got := NQueens.Serial(Arg{N: n}); got != want {
			t.Errorf("nqueens(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestKnapsackOptimumIsStable(t *testing.T) {
	// The parallel optimum must be independent of scheduling; run many
	// times with different worker counts.
	a := Arg{N: 18}
	want := Knapsack.Serial(a)
	for _, workers := range []int{1, 2, 4, 8} {
		rt := core.NewRuntime(core.Config{Workers: workers})
		var got uint64
		rt.Run(func(w *core.W) { got = Knapsack.Parallel(w, a) })
		if got != want {
			t.Errorf("P=%d: optimum %d != serial %d", workers, got, want)
		}
	}
}

func TestQuicksortActuallySorts(t *testing.T) {
	data := qsInput(10_000)
	qsSerial(data)
	for i := 1; i < len(data); i++ {
		if data[i-1] > data[i] {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func TestLUReconstructs(t *testing.T) {
	const n = 64
	A := spdMat(0x77, n)
	orig := newMat(n, n)
	orig.copyFrom(A)
	luSerial(A)
	// Reconstruct L·U and compare.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			for k := 0; k <= min(i, j); k++ {
				l := A.at(i, k)
				if k == i {
					l = 1
				}
				if k > i {
					l = 0
				}
				u := A.at(k, j)
				if k > j {
					u = 0
				}
				v += l * u
			}
			if d := v - orig.at(i, j); d > 1e-6 || d < -1e-6 {
				t.Fatalf("LU reconstruction off at (%d,%d): %g vs %g", i, j, v, orig.at(i, j))
			}
		}
	}
}

func TestCholeskyReconstructs(t *testing.T) {
	const n = 64
	A := spdMat(0x88, n)
	orig := newMat(n, n)
	orig.copyFrom(A)
	cholSerial(A)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v float64
			for k := 0; k <= j; k++ {
				v += A.at(i, k) * A.at(j, k)
			}
			if d := v - orig.at(i, j); d > 1e-6 || d < -1e-6 {
				t.Fatalf("L·Lᵀ off at (%d,%d): %g vs %g", i, j, v, orig.at(i, j))
			}
		}
	}
}

func TestFFTMatchesDirectDFT(t *testing.T) {
	const logN = 6
	data := fftInput(1 << logN)
	out := make([]complex128, len(data))
	fftSerial(out, data, 1)
	// Direct O(n²) DFT comparison on a few bins.
	n := len(data)
	for _, k := range []int{0, 1, n / 3, n - 1} {
		var want complex128
		for t2 := 0; t2 < n; t2++ {
			angle := -2 * math.Pi * float64(k) * float64(t2) / float64(n)
			want += data[t2] * complex(math.Cos(angle), math.Sin(angle))
		}
		d := out[k] - want
		if real(d) > 1e-6 || real(d) < -1e-6 || imag(d) > 1e-6 || imag(d) < -1e-6 {
			t.Errorf("FFT bin %d = %v, DFT %v", k, out[k], want)
		}
	}
}

func TestHeatConservesBoundary(t *testing.T) {
	a := Arg{N: 32, M: 4}
	cur, next := heatInput(a.N)
	for t2 := 0; t2 < a.M; t2++ {
		heatRows(next, cur, 1, a.N-1)
		cur, next = next, cur
	}
	for i := 0; i < a.N; i++ {
		if cur.at(i, 0) != 100.0 {
			t.Fatalf("left wall changed at row %d: %g", i, cur.at(i, 0))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
