package trace

import (
	"fmt"
	"testing"

	"fibril/internal/cacheline/layouttest"
)

// TestLayout pins the per-slot event rings to whole cacheline units, and
// checks on a live four-worker tracer that one slot's events never touch
// the unit holding the next slot's header (Go aligns a slice to its size
// class, not to the unit, so the size alone does not prove it).
func TestLayout(t *testing.T) {
	layouttest.Element(t, ring{})
	tr := NewTracer(NewRecorder(0), 4)
	var xs []layouttest.Extent
	for i := range tr.rings {
		xs = append(xs, layouttest.Of(fmt.Sprintf("ring %d", i), &tr.rings[i]))
	}
	layouttest.Disjoint(t, xs)
}
