package deque

import (
	"fmt"
	"runtime"
	"testing"

	"fibril/internal/cacheline/layouttest"
)

// stamped is the smallest element type Relaxed accepts.
type stamped struct{ c *Claim }

func (s stamped) WithClaim(c *Claim) stamped { s.c = c; return s }

// The groups of each deque, by writer (DESIGN.md §15): the owner's bottom
// index and ring header first, what thieves write second.
var (
	theGroups      = [][]string{{"tail", "buf"}, {"head", "lock"}}
	chaseLevGroups = [][]string{{"bottom", "buf", "recycle", "free"}, {"top"}}
	relaxedGroups  = [][]string{
		{"priv", "privHead", "privTail", "pubs", "reclaims", "wasted", "stolenSeen", "sincePub"},
		{"anchor", "ring"},
	}
)

// TestLayout pins who-writes-which-line for the three deques: the two
// groups and the deque's heap neighbours are all at least one cacheline
// unit apart. Every field must be listed, so a new one cannot slip in
// between two groups unnoticed.
func TestLayout(t *testing.T) {
	layouttest.Groups(t, Deque[int]{}, theGroups...)
	layouttest.Groups(t, ChaseLev[int]{}, chaseLevGroups...)
	layouttest.Groups(t, Relaxed[stamped]{}, relaxedGroups...)
}

// TestLayoutRealAddresses looks at where a runtime's worth of deques —
// allocated back to back, as NewRuntime does — actually land: Go aligns an
// object to its size class only, so sizes alone prove nothing about
// neighbours.
func TestLayoutRealAddresses(t *testing.T) {
	var xs []layouttest.Extent
	var live []any // an address must not be reused while its extent is held
	for i := 0; i < 4; i++ {
		for _, d := range []struct {
			p      any
			groups [][]string
		}{
			{&Deque[int]{}, theGroups},
			{&ChaseLev[int]{}, chaseLevGroups},
			{&Relaxed[stamped]{}, relaxedGroups},
		} {
			live = append(live, d.p)
			for g, fields := range d.groups {
				xs = append(xs, layouttest.Of(fmt.Sprintf("%T #%d group %d", d.p, i, g), d.p, fields...))
			}
		}
	}
	layouttest.Disjoint(t, xs)
	runtime.KeepAlive(live)
}
