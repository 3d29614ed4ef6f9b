package stack

import (
	"fmt"
	"strings"
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

// refPush is Push as it was before the stack kept a fast bound, statement for
// statement: what Enter and Push are held to. It maintains none of fast.
func refPush(s *Stack, bytes int) (base int, err error) {
	if bytes < 0 {
		return 0, fmt.Errorf("stack: negative frame size %d", bytes)
	}
	newTop := s.top + bytes
	if newTop > s.CapacityBytes() {
		return 0, fmt.Errorf("stack %d: overflow: %d + %d > %d bytes",
			s.id, s.top, bytes, s.CapacityBytes())
	}
	base = s.top
	if p := vm.PageAlign(newTop); bytes > 0 && p > s.cleanFrom {
		s.region.TouchRange(base/vm.PageSize, p)
		s.cleanFrom = p
	}
	s.top = newTop
	if newTop > s.high {
		s.high = newTop
	}
	return base, nil
}

// twin is a Stack and a reference copy of it in an address space of its own.
// Every operation is applied to both — except that the reference takes its
// frames through refPush — and after every one the stack's fast bound must be
// what its definition says and the two must agree on the watermark, the
// high-water mark, cleanFrom, the faults taken and the pages resident.
type twin struct {
	t      *testing.T
	s, ref *Stack
}

func newTwin(t *testing.T, as *vm.AddressSpace, pages int) *twin {
	t.Helper()
	s, err := New(as, pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(vm.NewAddressSpace(), pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &twin{t: t, s: s, ref: ref}
}

func (tw *twin) check(op string) {
	tw.t.Helper()
	s, ref := tw.s, tw.ref
	if want := min(s.cleanFrom*vm.PageSize, s.high); s.fast != want {
		tw.t.Fatalf("%s: fast = %d, want min(cleanFrom %d pages, high %d) = %d", op, s.fast, s.cleanFrom, s.high, want)
	}
	got := [...]int64{int64(s.top), int64(s.high), int64(s.cleanFrom), s.Faults(), int64(s.ResidentPages())}
	want := [...]int64{int64(ref.top), int64(ref.high), int64(ref.cleanFrom), ref.Faults(), int64(ref.ResidentPages())}
	if got != want {
		tw.t.Fatalf("%s: top, high, cleanFrom, faults, resident = %v, the reference has %v", op, got, want)
	}
}

// do applies an operation that is not a push to both stacks.
func (tw *twin) do(op string, f func(s *Stack)) {
	tw.t.Helper()
	f(tw.s)
	f(tw.ref)
	tw.check(op)
}

// push pushes a frame — through Enter, or through Push — and the same frame
// on the reference through refPush, and requires one outcome of both: the
// same base; a failure of one exactly when the other fails, Enter's panic
// carrying Push's error; and from a released stack the region's own panic.
func (tw *twin) push(bytes int, enter bool) (base int, ok bool) {
	tw.t.Helper()
	type outcome struct {
		base     int
		err      string
		panicked any
	}
	try := func(push func() (int, error)) (o outcome) {
		defer func() { o.panicked = recover() }()
		base, err := push()
		if err != nil {
			return outcome{err: err.Error()}
		}
		return outcome{base: base}
	}
	want := try(func() (int, error) { return refPush(tw.ref, bytes) })
	op := fmt.Sprintf("Push(%d)", bytes)
	push := func() (int, error) { return tw.s.Push(bytes) }
	if enter {
		op = fmt.Sprintf("Enter(%d)", bytes)
		push = func() (int, error) {
			base := tw.s.Bytes()
			tw.s.Enter(bytes)
			return base, nil
		}
	}
	got := try(push)
	if want.err != "" && enter { // Enter panics where Push returns an error
		msg, _ := got.panicked.(string)
		if !strings.Contains(msg, want.err) {
			tw.t.Fatalf("%s panicked with %v, want a panic carrying %q", op, got.panicked, want.err)
		}
	} else if got != want {
		tw.t.Fatalf("%s: base, error, panic = %v, the reference has %v", op, got, want)
	}
	tw.check(op)
	return want.base, want.err == "" && want.panicked == nil
}

// TestFastBoundFollowsEveryOperation walks one stack through every operation
// that moves cleanFrom or the high-water mark, and through frames that end
// below the fast bound, at it and above it, under the twin's checks.
func TestFastBoundFollowsEveryOperation(t *testing.T) {
	const pages = 8
	tw := newTwin(t, vm.NewAddressSpace(), pages)
	enter := func(bytes int) int { t.Helper(); base, _ := tw.push(bytes, true); return base }
	pop := func(base int) { t.Helper(); tw.do("Pop", func(s *Stack) { s.Pop(base) }) }

	enter(100)          // the first page faults
	inner := enter(100) // same page: nothing to touch, the high-water mark rises
	pop(inner)
	enter(100) // at the bound
	enter(0)
	pop(inner)
	enter(101) // one byte above it
	pop(0)
	base, _ := tw.push(3*vm.PageSize, false)
	pop(base)
	enter(3 * vm.PageSize) // over resident pages, below the high-water mark
	pop(100)
	tw.do("UnmapAbove", func(s *Stack) { s.UnmapAbove() })
	enter(3 * vm.PageSize) // the same frame faults its pages back in
	pop(100)
	tw.do("MapDummyAbove", func(s *Stack) { s.MapDummyAbove() })
	tw.do("RemapAbove", func(s *Stack) { s.RemapAbove() })
	enter(2 * vm.PageSize)
	pop(100)
	tw.do("UnmapAbove", func(s *Stack) { s.UnmapAbove() })
	enter(vm.PageSize)
	for _, bad := range []int{-1, pages * vm.PageSize} { // Enter panics exactly where Push fails
		if _, ok := tw.push(bad, true); ok {
			t.Fatalf("Enter(%d) succeeded", bad)
		}
		tw.push(bad, false)
	}
	// Nothing in the scheduler raises the watermark with SetWatermark, but
	// it may: the frame above it then starts over pages nobody touched.
	tw.do("SetWatermark down", func(s *Stack) { s.SetWatermark(100) })
	tw.do("UnmapAbove", func(s *Stack) { s.UnmapAbove() })
	tw.do("SetWatermark up", func(s *Stack) { s.SetWatermark(5 * vm.PageSize) })
	enter(16)
	tw.do("SetWatermark(0)", func(s *Stack) { s.SetWatermark(0) })
	tw.do("ReclaimResidue", func(s *Stack) { s.ReclaimResidue() })
	enter(2 * vm.PageSize)
	pop(0)
	enter(100)
	// Released with frames on it: the bound is zero and the watermark is
	// not, and a frame that would have fitted under the old bound must still
	// reach the region and be refused there.
	tw.do("Release", func(s *Stack) { s.Release() })
	for _, viaEnter := range []bool{true, false} {
		if _, ok := tw.push(16, viaEnter); ok || tw.s.Bytes() != 100 {
			t.Fatalf("a frame was pushed on a released stack (Enter: %v), watermark %d", viaEnter, tw.s.Bytes())
		}
	}
}

// FuzzStackUnmap decodes fuzz bytes into Push/Enter/Pop/SetWatermark/
// UnmapAbove/MapDummyAbove/RemapAbove/ReclaimResidue/Release
// sequences and checks the real page-granular stack after every operation
// against the shadow model — watermark, residency, fault count, dummy-touch
// count and high-water mark must all agree, every page below cleanFrom must be
// resident, and the address-space totals must be conserved — and against its
// twin: the fast bound is what its definition says, and Enter and Push do
// what Push did before there was one. Run with
//
//	go test -fuzz=FuzzStackUnmap -fuzztime=30s ./internal/stack/
func FuzzStackUnmap(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 2, 1, 0, 30})
	f.Add([]byte{0, 255, 3, 0, 20, 4, 0, 5, 1, 1})
	f.Add([]byte{0, 100, 0, 100, 0, 100, 1, 2, 1, 3, 4})
	f.Add([]byte{5, 10, 5, 10, 1, 5, 10, 5, 0, 7, 5, 130, 6, 0, 8, 5, 3, 9})
	f.Add([]byte{5, 200, 5, 200, 6, 1, 2, 5, 255, 5, 2, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages = 16
		as := vm.NewAddressSpace()
		tw := newTwin(t, as, pages)
		s := tw.s
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
			switch op := ops[i] % 10; op {
			case 0, 5: // a frame sized by the next byte, through Push or through Enter
				i++
				if i >= len(ops) {
					break
				}
				bytes := int(ops[i]) * 33 // 0..8415: sub-page to multi-page
				if op == 5 {
					bytes -= 99 // and a few negative sizes
				}
				base, ok := tw.push(bytes, op == 5)
				if ok != (bytes >= 0 && m.push(bytes)) {
					t.Fatalf("op %d: a frame of %d bytes pushed: %v; the shadow disagrees", i, bytes, ok)
				}
				if ok {
					bases = append(bases, base)
				}
			case 1: // pop the newest frame
				if len(bases) == 0 {
					continue
				}
				base := bases[len(bases)-1]
				tw.do("Pop", func(s *Stack) { s.Pop(base) })
				bases = bases[:len(bases)-1]
				if !m.pop() {
					t.Fatalf("op %d: shadow underflow", i)
				}
			case 2: // madvise the pages above the watermark
				tw.do("UnmapAbove", func(s *Stack) { s.UnmapAbove() })
				m.unmapAbove()
			case 3: // dummy-map above, as FibrilMMap suspension does
				tw.do("MapDummyAbove", func(s *Stack) { s.MapDummyAbove() })
				m.mapDummyAbove()
			case 4: // remap after a dummy-map, as resume does
				tw.do("RemapAbove", func(s *Stack) { s.RemapAbove() })
				m.remapAbove()
			case 6: // drop the watermark to a frame the next byte picks, as recycling does to zero
				i++
				if i >= len(ops) || len(bases) == 0 {
					break
				}
				k := int(ops[i]) % len(bases)
				tw.do("SetWatermark", func(s *Stack) { s.SetWatermark(bases[k]) })
				m.top, m.frames, bases = bases[k], m.frames[:k], bases[:k]
			case 8: // what the pool does to a free stack under memory pressure
				if s.Bytes() != 0 {
					continue
				}
				tw.do("ReclaimResidue", func(s *Stack) { s.ReclaimResidue() })
				m.unmapAbove()
			case 9: // teardown: whatever the watermark, no frame goes on any more
				tw.do("Release", func(s *Stack) { s.Release() })
				for _, enter := range []bool{true, false} {
					if _, ok := tw.push(33, enter); ok {
						t.Fatalf("op %d: pushed a frame on a released stack (Enter: %v)", i, enter)
					}
				}
				return
			}
			check(i, "")
		}

		// Final conservation: the one region owns every counted page.
		if got, want := s.ResidentPages(), int(as.Snapshot().RSSPages); got != want {
			t.Fatalf("final: region resident %d != address space RSS %d", got, want)
		}
	})
}
