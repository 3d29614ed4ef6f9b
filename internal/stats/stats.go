// Package stats provides the small aggregation helpers the harness uses to
// summarize repeated measurement runs, following the paper's methodology
// (mean of ten runs; "the standard deviation of our results is
// negligible").
package stats

import (
	"fmt"
	"math"
)

// Summary describes a sample of measurements.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
}

// Of summarizes the sample. An empty sample yields the zero Summary.
func Of(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders the summary compactly: "mean±std [min,max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g±%.2g [%.4g,%.4g] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}
