package deque

import (
	"fmt"
	"runtime"
	"testing"

	"fibril/internal/cacheline/layouttest"
)

// The deque's groups, by writer (DESIGN.md §7): the owner's two indices,
// ring header and store tally first, what thieves write second.
var theGroups = [][]string{{"tail", "bot", "buf", "tailStores"}, {"head", "lock"}}

// TestLayout pins who-writes-which-line for the deque: the two groups and
// the deque's heap neighbours are all at least one cacheline unit apart.
// Every field must be listed, so a new one cannot slip in between two
// groups unnoticed.
func TestLayout(t *testing.T) {
	layouttest.Groups(t, Deque[int]{}, theGroups...)
}

// TestLayoutRealAddresses looks at where a runtime's worth of deques —
// allocated back to back, as NewRuntime does — actually land: Go aligns an
// object to its size class only, so sizes alone prove nothing about
// neighbours.
func TestLayoutRealAddresses(t *testing.T) {
	var xs []layouttest.Extent
	var live []any // an address must not be reused while its extent is held
	for i := 0; i < 4; i++ {
		d := &Deque[int]{}
		live = append(live, d)
		for g, fields := range theGroups {
			xs = append(xs, layouttest.Of(fmt.Sprintf("deque #%d group %d", i, g), d, fields...))
		}
	}
	layouttest.Disjoint(t, xs)
	runtime.KeepAlive(live)
}
