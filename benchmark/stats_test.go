package main

import (
	"math"
	"testing"
)

// Vectors worked out by hand (and, for the quartiles, checked against
// Python's statistics.quantiles(values, n=4)).

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{50, 50},    // rank ceil(5.0) = 5
		{90, 90},    // rank 9
		{91, 100},   // rank ceil(9.1) = 10
		{99.9, 100}, // rank 10
		{10, 10},    // rank 1
		{0.1, 10},   // rank ceil(0.01) = 1
		{100, 100},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(ten, %g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99.9); got != 7 {
		t.Errorf("single sample: got %d, want 7", got)
	}
	// 1..1000: p99.9 is the 999th sample, with one beyond it.
	thousand := make([]int64, 1000)
	for i := range thousand {
		thousand[i] = int64(i + 1)
	}
	if got := percentile(thousand, 99.9); got != 999 {
		t.Errorf("percentile(1..1000, 99.9) = %d, want 999", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},  // 19 - ceil(9.5) = 9 beyond the median
		{20, 50, true},  // 10 beyond the median
		{99, 50, true},  // 99 - ceil(89.1) = 9 beyond p90
		{100, 90, true}, // exactly 10 beyond p90
		{999, 90, true}, // 999 - ceil(989.01) = 9 beyond p99
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true}, // exactly 10 beyond p99.9
		{40000, 99.9, true}, // 4 beyond p99.99
		{100000, 99.99, true},
	} {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if b := beyond(40000, 99.9); b != 40 {
		t.Errorf("beyond(40000, 99.9) = %d, want 40", b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1.5, 9.25, 4, 7.5, 2, 8}, 2, 4, 8}, // unsorted input
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// 1..10: quartiles 2.75 and 8.25 around a median of 5.5.
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := relSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want 1", got)
	}
	// Two sets: (max-min)/median.
	if got := relSpread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("relSpread(90,110) = %g, want 0.2", got)
	}
}

func TestP50nsInterpolatesInsideTheTiedBin(t *testing.T) {
	// Ten samples: 3 below 7, four equal to 7, 3 above. The middle rank
	// (5 of 10) is 2 of 4 into the tied bin [6.5, 7.5): 6.5 + 2/4 = 7.
	if got := p50ns([]int64{9, 7, 5, 7, 6, 7, 8, 4, 7, 10}); got.Value != 7 || got.N != 10 {
		t.Errorf("p50ns = %+v, want 7 from 10 samples", got)
	}
	// One below, three tied at 5: rank 2 of 4 is 1 of 3 into [4.5, 5.5).
	if got := p50ns([]int64{5, 5, 1, 5}); math.Abs(got.Value-(4.5+1.0/3)) > 1e-12 {
		t.Errorf("p50ns = %g, want %g", got.Value, 4.5+1.0/3)
	}
}
