package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOfEmpty(t *testing.T) {
	if s := Of(nil); s != (Summary{}) {
		t.Errorf("Of(nil) = %+v", s)
	}
}

func TestOfKnownSample(t *testing.T) {
	s := Of([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %g, want 5", s.Mean)
	}
	// Sample std of this classic sample is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 || s.N != 8 {
		t.Errorf("min/max/n = %g/%g/%d", s.Min, s.Max, s.N)
	}
}

func TestSingleton(t *testing.T) {
	s := Of([]float64{3.5})
	if s.Mean != 3.5 || s.Std != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("singleton summary = %+v", s)
	}
}

// Property: Min ≤ Mean ≤ Max and Std ≥ 0 for any finite sample.
func TestQuickBounds(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Of(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
