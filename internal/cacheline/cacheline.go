// Package cacheline holds the one padding idiom the runtime uses to keep
// state written by different goroutines off each other's cache lines
// (DESIGN.md §7).
//
// The unit is 128 bytes, not 64: x86-64's adjacent-line prefetcher pulls
// lines in aligned pairs, so a store to one line of a pair also disturbs
// readers of the other. Two fields never share a unit when they are at
// least Size bytes apart, whatever the alignment of the object holding
// them — and alignment cannot be asked for: Go aligns a heap object to its
// size class only, so a 48-byte object sits 48 bytes from its neighbour.
//
// Two forms cover every use, and neither counts bytes by hand, so adding a
// field cannot silently undo the separation.
//
// An object that is allocated on its own has arbitrary heap neighbours. It
// gets one Pad before its first group of fields, one between any two groups
// with different writers, and one after the last:
//
//	type T struct {
//		_ cacheline.Pad
//		a, b int // written by the owner
//		_ cacheline.Pad
//		c int // written by anyone
//		_ cacheline.Pad
//	}
//
// An element of a per-slot slice has only its own kind for neighbours. Its
// fields move to an embedded struct and the element is rounded up to whole
// units (a slice of such elements starts on a unit boundary in every size
// class the allocator has):
//
//	type shard struct {
//		shardFields
//		_ [cacheline.Size - unsafe.Sizeof(shardFields{})%cacheline.Size]byte
//	}
//
// The layout_test.go files of the packages that use the idiom check the
// offsets and, on live objects, the real addresses; see the layouttest
// subpackage.
package cacheline

// Size is the false-sharing unit in bytes: two 64-byte lines, the pair the
// adjacent-line prefetcher moves together.
const Size = 128

// Pad is one unit of padding.
type Pad [Size]byte
