package vm

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestPageAlign(t *testing.T) {
	cases := []struct {
		bytes, pages int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize - 1, 1}, {PageSize, 1},
		{PageSize + 1, 2}, {10 * PageSize, 10}, {10*PageSize + 7, 11},
	}
	for _, c := range cases {
		if got := PageAlign(c.bytes); got != c.pages {
			t.Errorf("PageAlign(%d) = %d, want %d", c.bytes, got, c.pages)
		}
	}
}

func TestMMapReservesVirtualOnly(t *testing.T) {
	as := NewAddressSpace()
	r, err := as.MMap(16)
	if err != nil {
		t.Fatal(err)
	}
	s := as.Snapshot()
	if s.VirtualPages != 16 {
		t.Errorf("VirtualPages = %d, want 16", s.VirtualPages)
	}
	if s.RSSPages != 0 {
		t.Errorf("RSSPages = %d, want 0 before any touch", s.RSSPages)
	}
	if r.ResidentPages() != 0 {
		t.Errorf("ResidentPages = %d, want 0", r.ResidentPages())
	}
}

func TestMMapRejectsNonPositive(t *testing.T) {
	as := NewAddressSpace()
	for _, n := range []int{0, -1} {
		if _, err := as.MMap(n); err == nil {
			t.Errorf("MMap(%d) succeeded, want error", n)
		}
	}
}

func TestTouchFaultsOnce(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(4)
	r.Touch(2)
	r.Touch(2)
	r.Touch(2)
	s := as.Snapshot()
	if s.PageFaults != 1 {
		t.Errorf("PageFaults = %d, want 1 (repeat touches are free)", s.PageFaults)
	}
	if s.RSSPages != 1 {
		t.Errorf("RSSPages = %d, want 1", s.RSSPages)
	}
	if !r.Resident(2) || r.Resident(1) {
		t.Error("residency bits wrong after Touch(2)")
	}
}

func TestMadviseFreesAndRefaults(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(8)
	r.TouchRange(0, 8)
	if got := as.Snapshot().RSSPages; got != 8 {
		t.Fatalf("RSS = %d, want 8", got)
	}
	freed := r.Madvise(2, 8)
	if freed != 6 {
		t.Errorf("Madvise freed %d, want 6", freed)
	}
	s := as.Snapshot()
	if s.RSSPages != 2 {
		t.Errorf("RSS = %d after madvise, want 2", s.RSSPages)
	}
	if s.MaxRSSPages != 8 {
		t.Errorf("MaxRSS = %d, want high-water 8", s.MaxRSSPages)
	}
	// Touching madvised pages faults them back in — the paper's Table 2
	// observation that unmap increases page faults.
	r.Touch(5)
	s = as.Snapshot()
	if s.PageFaults != 9 {
		t.Errorf("PageFaults = %d, want 9 (8 initial + 1 refault)", s.PageFaults)
	}
	if s.DummyTouches != 0 {
		t.Errorf("DummyTouches = %d, want 0 for the madvise path", s.DummyTouches)
	}
}

func TestMadviseIdempotentOnFreePages(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(4)
	if freed := r.Madvise(0, 4); freed != 0 {
		t.Errorf("Madvise on never-touched pages freed %d, want 0", freed)
	}
	if got := as.Snapshot().RSSPages; got != 0 {
		t.Errorf("RSS went negative-ish: %d", got)
	}
}

func TestMapDummyPreservesVirtualAndFreesPhysical(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(8)
	r.TouchRange(0, 8)
	freed := r.MapDummy(0, 8)
	if freed != 8 {
		t.Errorf("MapDummy freed %d, want 8", freed)
	}
	s := as.Snapshot()
	if s.RSSPages != 0 {
		t.Errorf("RSS = %d, want 0", s.RSSPages)
	}
	if s.VirtualPages != 8 {
		t.Errorf("VirtualPages = %d, want 8 (dummy mapping preserves VA)", s.VirtualPages)
	}
	// Remap then touch: no dummy-touch bug recorded.
	r.RemapAnonymous(0, 8)
	r.Touch(3)
	s = as.Snapshot()
	if s.DummyTouches != 0 {
		t.Errorf("DummyTouches = %d, want 0 after proper remap", s.DummyTouches)
	}
	if !r.Resident(3) {
		t.Error("page 3 should be resident after remap+touch")
	}
}

func TestDummyTouchWithoutRemapIsCounted(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(2)
	r.TouchRange(0, 2)
	r.MapDummy(0, 2)
	r.Touch(0) // remap discipline violated
	if got := as.Snapshot().DummyTouches; got != 1 {
		t.Errorf("DummyTouches = %d, want 1", got)
	}
}

func TestMUnmapReleasesEverything(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(8)
	r.TouchRange(0, 5)
	r.MUnmap()
	s := as.Snapshot()
	if s.RSSPages != 0 || s.VirtualPages != 0 {
		t.Errorf("after MUnmap RSS=%d virtual=%d, want 0/0", s.RSSPages, s.VirtualPages)
	}
	defer func() {
		if recover() == nil {
			t.Error("Touch after MUnmap should panic")
		}
	}()
	r.Touch(0)
}

func TestDoubleMUnmapPanics(t *testing.T) {
	as := NewAddressSpace()
	r, _ := as.MMap(1)
	r.MUnmap()
	defer func() {
		if recover() == nil {
			t.Error("double MUnmap should panic")
		}
	}()
	r.MUnmap()
}

func TestRegionsDoNotOverlap(t *testing.T) {
	as := NewAddressSpace()
	var regions []*Region
	for i := 0; i < 50; i++ {
		r, _ := as.MMap(1 + i%7)
		regions = append(regions, r)
	}
	for i, a := range regions {
		for j, b := range regions {
			if i == j {
				continue
			}
			aEnd := a.Base() + uint64(a.Len())
			bEnd := b.Base() + uint64(b.Len())
			if a.Base() < bEnd && b.Base() < aEnd {
				t.Fatalf("regions %d and %d overlap", i, j)
			}
		}
	}
}

func TestMaxVirtualHighWater(t *testing.T) {
	as := NewAddressSpace()
	r1, _ := as.MMap(10)
	r2, _ := as.MMap(10)
	r1.MUnmap()
	r2.MUnmap()
	s := as.Snapshot()
	if s.MaxVirtual != 20 {
		t.Errorf("MaxVirtual = %d, want 20", s.MaxVirtual)
	}
	if s.VirtualPages != 0 {
		t.Errorf("VirtualPages = %d, want 0", s.VirtualPages)
	}
}

// TestConcurrentMadviseNoLock verifies that concurrent Madvise calls on
// different regions never record address-space lock contention — the
// design property (§4.3) that motivates madvise-based unmap.
func TestConcurrentMadviseNoLock(t *testing.T) {
	as := NewAddressSpace()
	const workers = 8
	regions := make([]*Region, workers)
	for i := range regions {
		regions[i], _ = as.MMap(64)
		regions[i].TouchRange(0, 64)
	}
	base := as.Snapshot().LockContended
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(r *Region) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				r.TouchRange(0, 64)
				r.Madvise(0, 64)
			}
		}(regions[i])
	}
	wg.Wait()
	if got := as.Snapshot().LockContended - base; got != 0 {
		t.Errorf("madvise recorded %d lock contentions, want 0", got)
	}
	if got := as.Snapshot().RSSPages; got != 0 {
		t.Errorf("RSS = %d after final madvise round, want 0", got)
	}
}

// TestConcurrentMMapCountsAccurately checks counter integrity under
// concurrent serialized mutations.
func TestConcurrentMMapCountsAccurately(t *testing.T) {
	as := NewAddressSpace()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				r, err := as.MMap(2)
				if err != nil {
					t.Error(err)
					return
				}
				r.TouchRange(0, 2)
				r.MUnmap()
			}
		}()
	}
	wg.Wait()
	s := as.Snapshot()
	if s.MMapCalls != workers*per {
		t.Errorf("MMapCalls = %d, want %d", s.MMapCalls, workers*per)
	}
	if s.RSSPages != 0 || s.VirtualPages != 0 {
		t.Errorf("leaked: RSS=%d virtual=%d", s.RSSPages, s.VirtualPages)
	}
	if s.PageFaults != workers*per*2 {
		t.Errorf("PageFaults = %d, want %d", s.PageFaults, workers*per*2)
	}
}

// Property: for any sequence of touch/madvise operations, RSS equals the sum
// of per-region resident pages, never goes negative, and MaxRSS is a true
// high-water mark.
func TestQuickRSSConservation(t *testing.T) {
	prop := func(ops []uint16) bool {
		as := NewAddressSpace()
		var regions []*Region
		maxSeen := int64(0)
		for _, op := range ops {
			kind := op % 4
			switch {
			case kind == 0 || len(regions) == 0:
				n := int(op%13) + 1
				r, err := as.MMap(n)
				if err != nil {
					return false
				}
				regions = append(regions, r)
			case kind == 1:
				r := regions[int(op/4)%len(regions)]
				r.Touch(int(op/16) % r.Len())
			case kind == 2:
				r := regions[int(op/4)%len(regions)]
				lo := int(op/16) % (r.Len() + 1)
				hi := lo + int(op/64)%(r.Len()-lo+1)
				r.Madvise(lo, hi)
			case kind == 3:
				r := regions[int(op/4)%len(regions)]
				lo := int(op/16) % (r.Len() + 1)
				hi := lo + int(op/64)%(r.Len()-lo+1)
				r.TouchRange(lo, hi)
			}
			sum := int64(0)
			for _, r := range regions {
				sum += int64(r.ResidentPages())
			}
			s := as.Snapshot()
			if s.RSSPages != sum || s.RSSPages < 0 {
				return false
			}
			if s.RSSPages > maxSeen {
				maxSeen = s.RSSPages
			}
			if s.MaxRSSPages < maxSeen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: faults == pages that transitioned to resident, i.e. touching an
// already-resident page never faults, and madvise+retouch faults again.
func TestQuickFaultAccounting(t *testing.T) {
	prop := func(touches []uint8, advises []uint8) bool {
		as := NewAddressSpace()
		r, err := as.MMap(16)
		if err != nil {
			return false
		}
		expected := int64(0)
		resident := make([]bool, 16)
		step := 0
		for i := 0; i < len(touches) || i < len(advises); i++ {
			if i < len(touches) {
				p := int(touches[i]) % 16
				if !resident[p] {
					expected++
					resident[p] = true
				}
				r.Touch(p)
			}
			if i < len(advises) && step%3 == 2 {
				p := int(advises[i]) % 16
				r.Madvise(p, p+1)
				resident[p] = false
			}
			step++
		}
		return as.Snapshot().PageFaults == expected
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentConservationSampled is the harness-grade conservation
// property: per-region owners hammer Touch/Madvise (the lock-free hot
// path) while a sampler thread snapshots the global counters. Every
// snapshot — not just the final one — must satisfy the conservation laws:
// RSS within [0, total mapped pages], high-water and fault counters
// monotone, faults never below resident pages. At quiescence the global
// RSS must equal the sum of per-region residency exactly.
func TestConcurrentConservationSampled(t *testing.T) {
	as := NewAddressSpace()
	const (
		workers = 8
		pages   = 32
		rounds  = 400
	)
	regions := make([]*Region, workers)
	for i := range regions {
		regions[i], _ = as.MMap(pages)
	}
	total := int64(workers * pages)

	var workersWG, samplerWG sync.WaitGroup
	stop := make(chan struct{})
	samplerWG.Add(1)
	go func() { // sampler
		defer samplerWG.Done()
		var lastFaults, lastMax int64
		for {
			s := as.Snapshot()
			if s.RSSPages < 0 || s.RSSPages > total {
				t.Errorf("sampled RSS %d outside [0,%d]", s.RSSPages, total)
			}
			if s.PageFaults < lastFaults {
				t.Errorf("faults went backwards: %d < %d", s.PageFaults, lastFaults)
			}
			if s.MaxRSSPages < lastMax {
				t.Errorf("max RSS went backwards: %d < %d", s.MaxRSSPages, lastMax)
			}
			if s.PageFaults < s.MaxRSSPages {
				t.Errorf("faults %d < max RSS %d", s.PageFaults, s.MaxRSSPages)
			}
			lastFaults, lastMax = s.PageFaults, s.MaxRSSPages
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < workers; i++ {
		workersWG.Add(1)
		go func(id int, r *Region) {
			defer workersWG.Done()
			for k := 0; k < rounds; k++ {
				lo := (id + k) % pages
				r.TouchRange(lo, pages)
				if k%3 != 0 {
					r.Madvise(lo, pages)
				}
			}
		}(i, regions[i])
	}
	workersWG.Wait()
	close(stop)
	samplerWG.Wait()

	s := as.Snapshot()
	var resident int64
	for _, r := range regions {
		resident += int64(r.ResidentPages())
	}
	if s.RSSPages != resident {
		t.Errorf("final RSS %d != sum of region residency %d", s.RSSPages, resident)
	}
	if s.MaxRSSPages > total {
		t.Errorf("max RSS %d > total mapped %d", s.MaxRSSPages, total)
	}
}
