package main

import (
	"math"
	"slices"
)

// Exact statistics over kept samples: no buckets, and a sample count
// travels with every number.

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. sorted must be ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples: ceil(p/100 * n), at least 1. The small slack keeps a product
// that is a whole number in exact arithmetic (99.9% of 1000) from being
// rounded up by floating point.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// beyond is how many of n samples lie strictly above the p-th percentile
// rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the candidates of the reporting rule, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestSupported returns the highest candidate percentile that still
// has at least ten of n samples beyond it, and false when not even the
// median has.
func highestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// quartiles returns the first quartile, median and third quartile of
// values by the rule of Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the benchmark's driver applies to the
// ten runs it compares. It needs at least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 { // i of 4, exclusive method
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median returns the middle of values (mean of the two middle ones for an
// even count). values must be non-empty; it is not modified.
func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// relSpread is the distance between the quartiles as a share of the
// median — the spread the driver holds against a metric's bound. With
// fewer than four values it falls back to (max-min)/median.
func relSpread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return math.Inf(1)
	}
	if len(values) < 4 {
		return (slices.Max(values) - slices.Min(values)) / math.Abs(med)
	}
	q1, _, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}
