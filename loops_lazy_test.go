package fibril_test

import (
	"math"
	"sync/atomic"
	"testing"

	"fibril"
)

// Edge-case coverage for the lazily-split loops: degenerate ranges, grain
// extremes, zero-length collections, and cross-P determinism of Reduce.

func TestForEmptyRange(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 2})
	ran := 0
	rt.Run(func(w *fibril.W) {
		fibril.For(w, 5, 5, 4, func(w *fibril.W, i int) { ran++ })   // hi == lo
		fibril.For(w, 9, 2, 4, func(w *fibril.W, i int) { ran++ })   // hi < lo
		fibril.For(w, -3, -8, 0, func(w *fibril.W, i int) { ran++ }) // negative, inverted, auto-grain
	})
	if ran != 0 {
		t.Errorf("empty/inverted ranges ran %d iterations, want 0", ran)
	}
}

func TestForGrainLargerThanRange(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 4})
	var n atomic.Int32
	rt.Run(func(w *fibril.W) {
		fibril.For(w, 10, 20, 1000, func(w *fibril.W, i int) { n.Add(1) })
	})
	if got := n.Load(); got != 10 {
		t.Errorf("grain > range ran %d iterations, want 10", got)
	}
}

func TestForAutoGrainCoversExactlyOnce(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 4})
	for _, n := range []int{1, 2, 255, 256, 257, 5000} {
		counts := make([]atomic.Int32, n)
		rt.Run(func(w *fibril.W) {
			fibril.For(w, 0, n, 0, func(w *fibril.W, i int) { counts[i].Add(1) })
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d auto-grain: index %d ran %d times, want 1", n, i, got)
			}
		}
	}
}

func TestForEachAndMapZeroLength(t *testing.T) {
	rt := fibril.New(fibril.Config{Workers: 2})
	rt.Run(func(w *fibril.W) {
		fibril.ForEach(w, []int(nil), 4, func(w *fibril.W, v *int) {
			t.Error("ForEach over nil slice ran a body")
		})
		fibril.ForEach(w, []string{}, 0, func(w *fibril.W, v *string) {
			t.Error("ForEach over empty slice ran a body")
		})
		fibril.Map(w, []int{}, []int{}, 4, func(w *fibril.W, v int) int {
			t.Error("Map over empty slices ran a body")
			return v
		})
	})
}

// TestReduceDeterministicAcrossWorkers pins the lazy splitter's promise
// that the combine-tree shape depends only on (lo, hi, grain): a
// floating-point sum — where reassociation changes the bits — must come
// out bit-identical at P = 1, 2, 4, for explicit and automatic grain, no
// matter how the fork decisions fell.
func TestReduceDeterministicAcrossWorkers(t *testing.T) {
	const n = 10_000
	f := func(w *fibril.W, i int) float64 { return math.Sqrt(float64(i)) * 1e-3 }
	sum := func(a, b float64) float64 { return a + b }
	for _, grain := range []int{7, 0} { // explicit and auto
		var want float64
		var wantBits uint64
		for pi, p := range []int{1, 2, 4} {
			rt := fibril.New(fibril.Config{Workers: p})
			var got float64
			// Several rounds per P: scheduling varies run to run, and the
			// result must not.
			for round := 0; round < 5; round++ {
				rt.Run(func(w *fibril.W) {
					got = fibril.Reduce(w, 0, n, grain, 0, f, sum)
				})
				if pi == 0 && round == 0 {
					want, wantBits = got, math.Float64bits(got)
					continue
				}
				if math.Float64bits(got) != wantBits {
					t.Fatalf("grain=%d P=%d round %d: sum %v (bits %#x) differs from P=1 result %v (bits %#x)",
						grain, p, round, got, math.Float64bits(got), want, wantBits)
				}
			}
		}
	}
}
