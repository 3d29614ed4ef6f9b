// Package stack provides the page-granular linear stacks from which the
// Fibril runtime builds its cactus stack (SPAA 2016, §2 and §4.2).
//
// A Stack is a linear stack carved out of a simulated address space
// (internal/vm): frames are pushed and popped by moving a byte watermark,
// pages are faulted in on first use, and — the heart of the paper's space
// management — the pages above the live watermark of a *suspended* stack
// can be returned to the OS with UnmapAbove (madvise) or MapDummyAbove
// (serialized mmap), then reused when the stack is resumed.
//
// A cactus stack is a tree of these linear stacks. The tree is not recorded
// anywhere: a branch is a stolen child's frames, pushed on the thief's
// stack while the frame the child was forked on (its task's frame, the one
// its completion notifies) stays on the victim's.
package stack

import (
	"fmt"

	"fibril/internal/vm"
)

// DefaultStackPages is the default size of one linear stack, in simulated
// pages. The paper uses 1 MB stacks with 4 KB pages = 256 pages.
const DefaultStackPages = 256

// Stack is one linear stack. It is owned by at most one worker at a time;
// suspended stacks are not touched until resumed (the runtime enforces
// this), so methods need no internal locking.
type Stack struct {
	region *vm.Region
	top    int // current watermark: bytes in use
	high   int // high-water bytes ever used (serial S1 measurement aid)

	// cleanFrom is the boundary between the stack's resident and
	// non-resident pages. Every page at index >= cleanFrom is known
	// non-resident (never touched since it was last returned to the OS), so
	// a pooled stack with cleanFrom == 0 has no residue to reclaim. And
	// every page at index < cleanFrom is resident: Push raises
	// cleanFrom only over pages it has just touched, pages go away only
	// through this file's unmap paths (UnmapAbove, MapDummyAbove,
	// ReclaimResidue, Release), and each of those lowers cleanFrom to where
	// it unmapped from — so a Push that ends at or below cleanFrom has no
	// page to fault in and skips the per-page walk. SetWatermark keeps both
	// halves because no caller raises the watermark with it, only lowers it
	// or puts it back.
	cleanFrom int

	// fast is min(cleanFrom·PageSize, high), kept by setClean wherever either
	// moves: a frame that ends at or below it has no overflow to report, no
	// page to touch and no high-water mark to raise (Enter).
	fast int

	id int // small unique id for diagnostics and stats
}

// New maps a fresh stack of n pages in the given address space.
func New(as *vm.AddressSpace, pages, id int) (*Stack, error) {
	if pages <= 0 {
		pages = DefaultStackPages
	}
	r, err := as.MMap(pages)
	if err != nil {
		return nil, err
	}
	return &Stack{region: r, id: id}, nil
}

// ID returns the stack's identifier.
func (s *Stack) ID() int { return s.id }

// Bytes returns the current watermark in bytes.
func (s *Stack) Bytes() int { return s.top }

// Pages returns the watermark rounded up to whole pages — PAGE_ALIGN(rsp)
// in the paper's Listing 3.
func (s *Stack) Pages() int { return vm.PageAlign(s.top) }

// HighWaterPages returns the most pages this stack ever had live at once.
func (s *Stack) HighWaterPages() int { return vm.PageAlign(s.high) }

// Capacity returns the stack's total size in pages.
func (s *Stack) Capacity() int { return s.region.Len() }

// CapacityBytes returns the stack's total size in bytes.
func (s *Stack) CapacityBytes() int { return s.region.Len() * vm.PageSize }

// ResidentPages returns how many of the stack's pages are physically
// resident right now.
func (s *Stack) ResidentPages() int { return s.region.ResidentPages() }

// Faults returns the demand-paging faults this stack has taken, used by the
// simulator to charge per-fault latency to the owning worker.
func (s *Stack) Faults() int64 { return s.region.Faults() }

// setClean is every store to cleanFrom, and follows every store to high, so
// that fast stays what its comment says.
func (s *Stack) setClean(page int) {
	s.cleanFrom = page
	s.fast = min(page*vm.PageSize, s.high)
}

// Enter is Push for a caller to whom an overflow is fatal and who has read
// the frame's base already (Bytes) — the scheduler's function prologue. It
// inlines; only a frame that ends above fast leaves the caller's code. The
// test is on the room left, signed, which a released stack (fast zero, any
// watermark) never has.
func (s *Stack) Enter(bytes int) {
	if bytes < 0 || bytes > s.fast-s.top {
		s.enterSlow(bytes)
		return
	}
	s.top += bytes
}

//go:noinline
func (s *Stack) enterSlow(bytes int) {
	if _, err := s.Push(bytes); err != nil {
		panic(fmt.Sprintf("stack overflow: %v", err))
	}
}

// Push allocates a frame of the given byte size, touching (faulting in)
// any new pages it spans, and returns the frame's base offset. It fails if
// the stack would overflow, the analogue of running off a real 1 MB stack.
func (s *Stack) Push(bytes int) (base int, err error) {
	if bytes < 0 {
		return 0, fmt.Errorf("stack: negative frame size %d", bytes)
	}
	newTop := s.top + bytes
	if newTop > s.CapacityBytes() {
		return 0, fmt.Errorf("stack %d: overflow: %d + %d > %d bytes",
			s.id, s.top, bytes, s.CapacityBytes())
	}
	base = s.top
	p := s.cleanFrom
	if q := vm.PageAlign(newTop); bytes > 0 && q > p {
		s.region.TouchRange(base/vm.PageSize, q)
		p = q
	}
	s.top = newTop
	s.high = max(s.high, newTop)
	s.setClean(p)
	return base, nil
}

// Pop frees the most recent frame by restoring the watermark to base, as a
// function epilogue restores the stack pointer.
func (s *Stack) Pop(base int) {
	if base < 0 || base > s.top {
		s.badPop(base)
	}
	s.top = base
}

//go:noinline
func (s *Stack) badPop(base int) {
	panic(fmt.Sprintf("stack %d: Pop to %d with top %d", s.id, base, s.top))
}

// SetWatermark forces the watermark, used when resuming a suspended frame
// whose saved state records the stack depth at suspension.
func (s *Stack) SetWatermark(bytes int) {
	if bytes < 0 || bytes > s.CapacityBytes() {
		panic(fmt.Sprintf("stack %d: SetWatermark(%d)", s.id, bytes))
	}
	s.top = bytes
	s.high = max(s.high, bytes)
	s.setClean(s.cleanFrom)
}

// UnmapAbove returns the unused pages above the live watermark to the OS
// via madvise(DONTNEED) — Listing 3's unmap(f->stack, PAGE_ALIGN(rsp)).
// Only whole pages strictly above the watermark page are freed; the
// partially used top page stays resident (the "+D" term of Theorem 4.2).
// It returns the number of physical pages freed.
func (s *Stack) UnmapAbove() int {
	freed := s.region.Madvise(s.Pages(), s.Capacity())
	s.setClean(s.Pages())
	return freed
}

// MapDummyAbove is the serialized-mmap alternative to UnmapAbove: it remaps
// the unused pages to a dummy file, taking the address-space lock.
func (s *Stack) MapDummyAbove() int {
	freed := s.region.MapDummy(s.Pages(), s.Capacity())
	s.setClean(s.Pages())
	return freed
}

// ReclaimResidue returns every possibly-resident page of a quiescent
// (pooled, watermark-zero) stack to the OS — the RSS-ceiling fallback that
// reclaims from free stacks before new ones are mapped. It reports the
// pages freed and whether a madvise call was issued (none when the stack
// is already clean).
func (s *Stack) ReclaimResidue() (freed int, called bool) {
	if s.cleanFrom <= 0 {
		return 0, false
	}
	freed = s.region.Madvise(0, s.cleanFrom)
	s.setClean(0)
	return freed, true
}

// RemapAbove undoes MapDummyAbove before the stack is reused. After a
// madvise-based unmap this is unnecessary (remap is a no-op in that mode).
func (s *Stack) RemapAbove() {
	s.region.RemapAnonymous(s.Pages(), s.Capacity())
}

// HasDummyPages reports whether any page is still dummy-file mapped — a
// MapDummyAbove not yet undone by RemapAbove. Such a stack must not be
// reused: touching a dummy page reads the dummy file, not stack memory.
func (s *Stack) HasDummyPages() bool {
	return s.region.DummyPages() > 0
}

// Release unmaps the stack's region entirely. Only for teardown. No page is
// resident afterwards, so a Push on the released stack walks its pages and
// panics in the region ("use of unmapped region").
func (s *Stack) Release() {
	s.region.MUnmap()
	s.setClean(0)
}
