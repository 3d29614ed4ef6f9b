package stack

import (
	"testing"
	"testing/quick"

	"fibril/internal/vm"
)

func newStack(t *testing.T, pages int) (*vm.AddressSpace, *Stack) {
	t.Helper()
	as := vm.NewAddressSpace()
	s, err := New(as, pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	return as, s
}

func TestPushPopWatermark(t *testing.T) {
	_, s := newStack(t, 4)
	b1, err := s.Push(100)
	if err != nil || b1 != 0 {
		t.Fatalf("Push(100) = %d,%v", b1, err)
	}
	b2, _ := s.Push(200)
	if b2 != 100 {
		t.Fatalf("second frame base = %d, want 100", b2)
	}
	if s.Bytes() != 300 || s.Pages() != 1 {
		t.Fatalf("watermark = %d bytes / %d pages, want 300/1", s.Bytes(), s.Pages())
	}
	s.Pop(b2)
	s.Pop(b1)
	if s.Bytes() != 0 {
		t.Fatalf("watermark = %d after pops, want 0", s.Bytes())
	}
	if s.HighWaterPages() != 1 {
		t.Fatalf("high water = %d pages, want 1", s.HighWaterPages())
	}
}

func TestPushTouchesPages(t *testing.T) {
	as, s := newStack(t, 8)
	s.Push(3 * vm.PageSize)
	if got := as.Snapshot().PageFaults; got != 3 {
		t.Errorf("faults = %d after 3-page frame, want 3", got)
	}
	s.Push(vm.PageSize / 2)
	if got := as.Snapshot().PageFaults; got != 4 {
		t.Errorf("faults = %d, want 4", got)
	}
	// A tiny frame within the already-resident page is free.
	s.Push(16)
	if got := as.Snapshot().PageFaults; got != 4 {
		t.Errorf("faults = %d after sub-page push, want still 4", got)
	}
}

func TestPushZeroBytes(t *testing.T) {
	as, s := newStack(t, 2)
	if _, err := s.Push(0); err != nil {
		t.Fatal(err)
	}
	if got := as.Snapshot().PageFaults; got != 0 {
		t.Errorf("zero-size frame faulted %d pages", got)
	}
}

// TestPushBelowCleanFromStillFaultsAfterUnmap pins the fast path in Push: a
// frame that ends below cleanFrom is not walked page by page, so each path
// that takes pages away has to lower cleanFrom — or the pages would never
// fault back in — and a released stack has to refuse the Push altogether.
func TestPushBelowCleanFromStillFaultsAfterUnmap(t *testing.T) {
	regrow := func(name string, unmap func(s *Stack)) {
		as, s := newStack(t, 8)
		base, _ := s.Push(6 * vm.PageSize)
		s.Pop(base)
		s.Push(100) // one page live, six resident
		unmap(s)
		before := as.Snapshot().PageFaults
		s.Push(3 * vm.PageSize)
		if got := as.Snapshot().PageFaults - before; got != 3 {
			t.Errorf("%s: regrowing 3 pages faulted %d, want 3", name, got)
		}
		s.Pop(100)
		s.Push(3 * vm.PageSize) // resident again: the walk is skipped, nothing faults
		if got := as.Snapshot().PageFaults - before; got != 3 {
			t.Errorf("%s: a second push over resident pages faulted (%d in all, want 3)", name, got)
		}
	}
	regrow("UnmapAbove", func(s *Stack) { s.UnmapAbove() })
	regrow("MapDummyAbove", func(s *Stack) { s.MapDummyAbove(); s.RemapAbove() })

	// Released with a frame still on it: a frame that would fit under the
	// pages it had resident has to reach the region, through Push and through
	// Enter's two compares alike.
	for name, push := range map[string]func(*Stack){
		"Push":  func(s *Stack) { s.Push(16) },
		"Enter": func(s *Stack) { s.Enter(16) },
	} {
		_, s := newStack(t, 8)
		base, _ := s.Push(2 * vm.PageSize)
		s.Pop(base)
		s.Push(100)
		s.Release()
		func() {
			defer func() {
				if v := recover(); v != "vm: use of unmapped region" {
					t.Errorf("%s on a released stack: recovered %v, want the region's panic", name, v)
				}
			}()
			push(s)
		}()
	}
}

func TestOverflow(t *testing.T) {
	_, s := newStack(t, 2)
	if _, err := s.Push(2*vm.PageSize + 1); err == nil {
		t.Error("expected overflow error")
	}
	if _, err := s.Push(2 * vm.PageSize); err != nil {
		t.Errorf("exact-fit push failed: %v", err)
	}
	if _, err := s.Push(1); err == nil {
		t.Error("expected overflow on full stack")
	}
	if _, err := s.Push(-1); err == nil {
		t.Error("expected error on negative size")
	}
}

func TestUnmapAboveKeepsLivePages(t *testing.T) {
	as, s := newStack(t, 16)
	base, _ := s.Push(10 * vm.PageSize)
	s.Push(5 * vm.PageSize)
	s.Pop(base + 10*vm.PageSize) // back to 10 pages live, 15 resident
	if got := s.ResidentPages(); got != 15 {
		t.Fatalf("resident = %d, want 15", got)
	}
	freed := s.UnmapAbove()
	if freed != 5 {
		t.Errorf("UnmapAbove freed %d, want 5", freed)
	}
	if got := s.ResidentPages(); got != 10 {
		t.Errorf("resident = %d after unmap, want 10 live pages kept", got)
	}
	// Pushing again refaults.
	before := as.Snapshot().PageFaults
	s.Push(2 * vm.PageSize)
	if got := as.Snapshot().PageFaults - before; got != 2 {
		t.Errorf("refaults = %d, want 2", got)
	}
}

func TestUnmapAbovePartialPage(t *testing.T) {
	_, s := newStack(t, 4)
	s.Push(vm.PageSize + 100) // 1 full page + partial second page
	s.Push(2*vm.PageSize - 200)
	s.Pop(vm.PageSize + 100)
	// Watermark page (page 1, partially used) must survive the unmap —
	// this is the per-stack "+1" that becomes the +D of Theorem 4.2.
	s.UnmapAbove()
	if got := s.ResidentPages(); got != 2 {
		t.Errorf("resident = %d, want 2 (full page + partial watermark page)", got)
	}
}

func TestMapDummyAboveAndRemap(t *testing.T) {
	as, s := newStack(t, 8)
	s.Push(8 * vm.PageSize)
	s.Pop(2 * vm.PageSize)
	s.MapDummyAbove()
	if got := s.ResidentPages(); got != 2 {
		t.Errorf("resident = %d, want 2", got)
	}
	s.RemapAbove()
	s.Push(vm.PageSize)
	if got := as.Snapshot().DummyTouches; got != 0 {
		t.Errorf("dummy touches = %d, want 0 after remap", got)
	}
}

// mustTake unwraps a Take that the test expects to succeed.
func mustTake(t *testing.T, p *Pool, shard int) *Stack {
	t.Helper()
	s, err := p.Take(shard)
	if err != nil {
		t.Fatalf("Take: %v", err)
	}
	if s == nil {
		t.Fatal("Take returned nil from an open pool")
	}
	return s
}

func TestPoolReuse(t *testing.T) {
	as := vm.NewAddressSpace()
	p := NewPool(as, 4, 0)
	s1 := mustTake(t, p, 0)
	s1.Push(100)
	p.Put(0, s1)
	s2 := mustTake(t, p, 0)
	if s2 != s1 {
		t.Error("pool did not reuse the freed stack")
	}
	if s2.Bytes() != 0 {
		t.Errorf("recycled stack watermark = %d, want 0", s2.Bytes())
	}
	if p.Created() != 1 {
		t.Errorf("Created = %d, want 1", p.Created())
	}
}

func TestPoolCreatesWhenEmpty(t *testing.T) {
	as := vm.NewAddressSpace()
	p := NewPool(as, 4, 0)
	a := mustTake(t, p, 0)
	b := mustTake(t, p, 0)
	if a == b {
		t.Error("pool returned the same stack twice")
	}
	if p.Created() != 2 || p.MaxInUse() != 2 {
		t.Errorf("Created=%d MaxInUse=%d, want 2/2", p.Created(), p.MaxInUse())
	}
}

func TestBoundedPoolBlocksThenUnblocks(t *testing.T) {
	p := NewPool(vm.NewAddressSpace(), 4, 2)
	mustTake(t, p, 0)
	b := mustTake(t, p, 0)
	done := make(chan *Stack)
	go func() { s, _ := p.Take(0); done <- s }()
	// Wait until the taker has actually stalled before returning a stack.
	eventually(t, "the taker to stall", func() bool { return p.Stalls() == 1 })
	p.Put(0, b)
	got := <-done
	if got != b {
		t.Error("blocked Take did not receive the returned stack")
	}
	if p.Stalls() != 1 {
		t.Errorf("Stalls = %d, want 1", p.Stalls())
	}
}

func TestReclaimResidue(t *testing.T) {
	as, s := newStack(t, 8)
	s.Push(5 * vm.PageSize)
	s.Pop(0)
	s.SetWatermark(0) // quiescent, as when pooled
	freed, called := s.ReclaimResidue()
	if !called || freed != 5 {
		t.Fatalf("ReclaimResidue = %d,%v, want 5,true", freed, called)
	}
	if got := s.ResidentPages(); got != 0 {
		t.Errorf("resident = %d, want 0", got)
	}
	before := as.Snapshot().MadviseCalls
	if _, called := s.ReclaimResidue(); called {
		t.Error("ReclaimResidue re-issued madvise on a clean stack")
	}
	if got := as.Snapshot().MadviseCalls - before; got != 0 {
		t.Errorf("clean reclaim cost %d madvise calls", got)
	}
}

// Property: push/pop algebra — after any valid sequence, watermark equals
// the sum of live frame sizes, and page residency is at least PAGE_ALIGN of
// the high-water mark until an unmap happens.
func TestQuickPushPopAlgebra(t *testing.T) {
	prop := func(sizes []uint16, popMask uint32) bool {
		as := vm.NewAddressSpace()
		s, err := New(as, 64, 1)
		if err != nil {
			return false
		}
		type frame struct{ base, size int }
		var live []frame
		total := 0
		for i, sz := range sizes {
			size := int(sz % 2048)
			if total+size <= s.CapacityBytes() {
				base, err := s.Push(size)
				if err != nil {
					return false
				}
				live = append(live, frame{base, size})
				total += size
			}
			if popMask&(1<<(uint(i)%32)) != 0 && len(live) > 0 {
				f := live[len(live)-1]
				live = live[:len(live)-1]
				s.Pop(f.base)
				total -= f.size
			}
			if s.Bytes() != total {
				return false
			}
			if s.ResidentPages() < s.Pages() {
				return false // live pages must always be resident
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UnmapAbove never frees live pages and always leaves exactly the
// watermark pages resident when the whole stack was previously touched.
func TestQuickUnmapInvariant(t *testing.T) {
	prop := func(liveBytes uint16) bool {
		as := vm.NewAddressSpace()
		s, err := New(as, 16, 1)
		if err != nil {
			return false
		}
		s.Push(16 * vm.PageSize) // touch everything
		keep := int(liveBytes) % (16 * vm.PageSize)
		s.Pop(keep)
		s.UnmapAbove()
		return s.ResidentPages() == vm.PageAlign(keep)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
