package stack

import (
	"fmt"
	"testing"

	"fibril/internal/cacheline/layouttest"
	"fibril/internal/vm"
)

// TestLayout pins the per-slot free caches to whole cacheline units, and
// checks on a live four-shard pool that no two slots' caches really do
// touch the same unit (Go aligns a slice to its size class, not to the
// unit, so the size alone does not prove it).
func TestLayout(t *testing.T) {
	layouttest.Element(t, shardCache{})
	p := NewShardedPool(vm.NewAddressSpace(), 4, 0, 4)
	var xs []layouttest.Extent
	for i := range p.caches {
		xs = append(xs, layouttest.Of(fmt.Sprintf("cache %d", i), &p.caches[i]))
	}
	layouttest.Disjoint(t, xs)
}
