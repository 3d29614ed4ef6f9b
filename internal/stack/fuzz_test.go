package stack

import (
	"testing"

	"fibril/internal/vm"
)

// shadowStack is an independent re-statement of the Stack/Region paging
// contract: a watermark, a per-page state machine (anon / resident /
// dummy), and fault/dummy-touch counters. FuzzStackUnmap drives a real
// Stack and the shadow through the same op sequence and requires them to
// agree after every step.
type shadowStack struct {
	pages      []int // 0 = anon (not resident), 1 = resident, 2 = dummy
	top        int   // watermark, bytes
	high       int
	faults     int64
	dummyTouch int64
	frames     []int // pushed frame bases
	capacityB  int
}

func newShadow(pages int) *shadowStack {
	return &shadowStack{pages: make([]int, pages), capacityB: pages * vm.PageSize}
}

func (m *shadowStack) touch(i int) {
	switch m.pages[i] {
	case 1:
		return
	case 2:
		m.dummyTouch++
	}
	m.pages[i] = 1
	m.faults++
}

func (m *shadowStack) push(bytes int) bool {
	newTop := m.top + bytes
	if newTop > m.capacityB {
		return false
	}
	if bytes > 0 {
		for i := m.top / vm.PageSize; i < vm.PageAlign(newTop); i++ {
			m.touch(i)
		}
	}
	m.frames = append(m.frames, m.top)
	m.top = newTop
	if newTop > m.high {
		m.high = newTop
	}
	return true
}

func (m *shadowStack) pop() bool {
	if len(m.frames) == 0 {
		return false
	}
	m.top = m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	return true
}

func (m *shadowStack) unmapAbove() {
	for i := vm.PageAlign(m.top); i < len(m.pages); i++ {
		if m.pages[i] == 1 {
			m.pages[i] = 0
		}
	}
}

func (m *shadowStack) mapDummyAbove() {
	for i := vm.PageAlign(m.top); i < len(m.pages); i++ {
		m.pages[i] = 2
	}
}

func (m *shadowStack) remapAbove() {
	for i := vm.PageAlign(m.top); i < len(m.pages); i++ {
		if m.pages[i] == 2 {
			m.pages[i] = 0
		}
	}
}

func (m *shadowStack) resident() int {
	n := 0
	for _, s := range m.pages {
		if s == 1 {
			n++
		}
	}
	return n
}

// FuzzStackUnmap decodes fuzz bytes into Push/Pop/UnmapAbove/
// MapDummyAbove/RemapAbove sequences and checks the real page-granular
// stack against the shadow model after every operation: watermark,
// residency, fault count, dummy-touch count, and high-water mark must all
// agree, every page below cleanFrom must be resident, and the address-space
// totals must be conserved. Run with
//
//	go test -fuzz=FuzzStackUnmap -fuzztime=30s ./internal/stack/
func FuzzStackUnmap(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 2, 1, 0, 30})
	f.Add([]byte{0, 255, 3, 0, 20, 4, 0, 5, 1, 1})
	f.Add([]byte{0, 100, 0, 100, 0, 100, 1, 2, 1, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 16
		as := vm.NewAddressSpace()
		s, err := New(as, pages, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := newShadow(pages)
		var bases []int

		check := func(i int, op string) {
			t.Helper()
			if s.Bytes() != m.top {
				t.Fatalf("op %d %s: watermark %d, shadow %d", i, op, s.Bytes(), m.top)
			}
			if s.ResidentPages() != m.resident() {
				t.Fatalf("op %d %s: resident %d, shadow %d", i, op, s.ResidentPages(), m.resident())
			}
			if s.Faults() != m.faults {
				t.Fatalf("op %d %s: faults %d, shadow %d", i, op, s.Faults(), m.faults)
			}
			// Push skips its page walk below cleanFrom on the strength of
			// this: the shadow agrees every page there is resident.
			for p := 0; p < s.cleanFrom; p++ {
				if !s.region.Resident(p) || m.pages[p] != 1 {
					t.Fatalf("op %d %s: page %d below cleanFrom %d is not resident (shadow state %d)",
						i, op, p, s.cleanFrom, m.pages[p])
				}
			}
			if vm.PageAlign(m.high) != s.HighWaterPages() {
				t.Fatalf("op %d %s: high-water %d pages, shadow %d", i, op, s.HighWaterPages(), vm.PageAlign(m.high))
			}
			snap := as.Snapshot()
			if snap.DummyTouches != m.dummyTouch {
				t.Fatalf("op %d %s: dummy touches %d, shadow %d", i, op, snap.DummyTouches, m.dummyTouch)
			}
			if snap.RSSPages != int64(m.resident()) {
				t.Fatalf("op %d %s: RSS %d, shadow %d", i, op, snap.RSSPages, m.resident())
			}
			if snap.RSSPages < 0 || snap.MaxRSSPages < snap.RSSPages {
				t.Fatalf("op %d %s: inconsistent RSS accounting: %+v", i, op, snap)
			}
			if snap.PageFaults < snap.MaxRSSPages {
				t.Fatalf("op %d %s: faults %d < max RSS %d", i, op, snap.PageFaults, snap.MaxRSSPages)
			}
		}

		for i := 0; i < len(ops); i++ {
			switch ops[i] % 5 {
			case 0: // push a frame sized by the next byte (0..2 pages)
				i++
				if i >= len(ops) {
					break
				}
				bytes := int(ops[i]) * 33 // 0..8415: sub-page to multi-page
				base, err := s.Push(bytes)
				if m.push(bytes) {
					if err != nil {
						t.Fatalf("op %d: Push(%d) failed: %v", i, bytes, err)
					}
					bases = append(bases, base)
				} else if err == nil {
					t.Fatalf("op %d: Push(%d) succeeded past capacity", i, bytes)
				}
			case 1: // pop the newest frame
				if len(bases) == 0 {
					continue
				}
				s.Pop(bases[len(bases)-1])
				bases = bases[:len(bases)-1]
				if !m.pop() {
					t.Fatalf("op %d: shadow underflow", i)
				}
			case 2: // madvise the pages above the watermark
				s.UnmapAbove()
				m.unmapAbove()
			case 3: // dummy-map above, as FibrilMMap suspension does
				s.MapDummyAbove()
				m.mapDummyAbove()
			case 4: // remap after a dummy-map, as resume does
				s.RemapAbove()
				m.remapAbove()
			}
			check(i, "")
		}

		// Final conservation: the one region owns every counted page.
		if got, want := s.ResidentPages(), int(as.Snapshot().RSSPages); got != want {
			t.Fatalf("final: region resident %d != address space RSS %d", got, want)
		}
	})
}
