package deque

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// dequeAPI lets the same tests run against both implementations.
type dequeAPI[T any] interface {
	Push(T)
	PushLazy(*T) int
	Publish() int
	Pop() (T, bool)
	PopRepublish(*T) (int, bool)
	Steal() (T, bool)
	StealIf(func(T) bool) (T, bool)
	Len() int
}

var (
	_ dequeAPI[int] = (*Deque[int])(nil)
	_ dequeAPI[int] = (*Locked[int])(nil)
)

// PushLazy is the fork path's lazy push — build the entry in Slot, then
// PushSlot — for tests, which push values they already hold.
func (d *Deque[T]) PushLazy(t *T) int {
	*d.Slot() = *t
	return d.PushSlot()
}

func implementations() map[string]func() dequeAPI[int] {
	return map[string]func() dequeAPI[int]{
		"THE":    func() dequeAPI[int] { return &Deque[int]{} },
		"Locked": func() dequeAPI[int] { return &Locked[int]{} },
	}
}

func TestEmptyPopSteal(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			if _, ok := d.Pop(); ok {
				t.Error("Pop on empty succeeded")
			}
			if _, ok := d.Steal(); ok {
				t.Error("Steal on empty succeeded")
			}
			if d.Len() != 0 {
				t.Error("empty deque misreports size")
			}
		})
	}
}

func TestPopIsLIFO(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 10; i++ {
				d.Push(i)
			}
			for i := 9; i >= 0; i-- {
				v, ok := d.Pop()
				if !ok || v != i {
					t.Fatalf("Pop = %d,%v, want %d,true", v, ok, i)
				}
			}
		})
	}
}

func TestStealIsFIFO(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 10; i++ {
				d.Push(i)
			}
			for i := 0; i < 10; i++ {
				v, ok := d.Steal()
				if !ok || v != i {
					t.Fatalf("Steal = %d,%v, want %d,true", v, ok, i)
				}
			}
		})
	}
}

func TestMixedEnds(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			d := mk()
			for i := 0; i < 6; i++ {
				d.Push(i)
			}
			if v, _ := d.Steal(); v != 0 {
				t.Fatalf("first steal = %d, want 0", v)
			}
			if v, _ := d.Pop(); v != 5 {
				t.Fatalf("first pop = %d, want 5", v)
			}
			if v, _ := d.Steal(); v != 1 {
				t.Fatalf("second steal = %d, want 1", v)
			}
			if d.Len() != 3 {
				t.Fatalf("Len = %d, want 3", d.Len())
			}
		})
	}
}

func TestGrowthPreservesOrder(t *testing.T) {
	d := &Deque[int]{}
	const n = initialCapacity*4 + 13
	for i := 0; i < n; i++ {
		d.Push(i)
	}
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
	for i := 0; i < n/2; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("Steal = %d,%v, want %d", v, ok, i)
		}
	}
	for i := n - 1; i >= n/2; i-- {
		if v, ok := d.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, i)
		}
	}
}

// TestGrowthCarriesPrivateEntries grows the ring several times while all
// but the first entry are private: grow must copy [head, bot), not just the
// public part.
func TestGrowthCarriesPrivateEntries(t *testing.T) {
	d := &Deque[int]{}
	const n = initialCapacity*4 + 13
	for i := 0; i < n; i++ {
		d.PushLazy(&i)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d after lazy pushes, want 1 (only the first is public)", d.Len())
	}
	if len(d.buf) <= initialCapacity*4 {
		t.Fatalf("ring holds %d entries in %d slots", n, len(d.buf))
	}
	// The thief takes the one public entry; the next Pop is private, finds
	// the public part dry and republishes what it leaves behind.
	if v, ok := d.Steal(); !ok || v != 0 {
		t.Fatalf("Steal = %d,%v, want 0", v, ok)
	}
	var v int
	if pub, ok := d.PopRepublish(&v); !ok || v != n-1 || pub != n-2 {
		t.Fatalf("PopRepublish = %d,%d,%v, want %d,%d,true", v, pub, ok, n-1, n-2)
	}
	for i := 1; i < n/2; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("Steal = %d,%v, want %d", v, ok, i)
		}
	}
	for i := n - 2; i >= n/2; i-- {
		if v, ok := d.Pop(); !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, i)
		}
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop succeeded on a drained deque")
	}
}

func TestGrowthAfterWrapAround(t *testing.T) {
	for name, push := range map[string]func(*Deque[int], int){
		"eager": func(d *Deque[int], v int) { d.Push(v) },
		"lazy":  func(d *Deque[int], v int) { d.PushLazy(&v) },
	} {
		t.Run(name, func(t *testing.T) {
			d := &Deque[int]{}
			// Advance the indices far past the initial ring size so they
			// wrap, then force growth and verify contents.
			for round := 0; round < 10; round++ {
				for i := 0; i < initialCapacity-1; i++ {
					push(d, round*1000+i)
				}
				d.Publish()
				for i := 0; i < initialCapacity-1; i++ {
					if _, ok := d.Steal(); !ok {
						t.Fatal("steal failed during warm-up")
					}
				}
			}
			const n = initialCapacity * 3
			for i := 0; i < n; i++ {
				push(d, i)
			}
			d.Publish()
			for i := 0; i < n; i++ {
				if v, ok := d.Steal(); !ok || v != i {
					t.Fatalf("post-wrap Steal = %d,%v, want %d", v, ok, i)
				}
			}
		})
	}
}

// stealPreds are the predicates a replayed StealIf op chooses from: accept
// all, reject all, and two that depend on the candidate.
var stealPreds = []func(int) bool{
	func(int) bool { return true },
	func(int) bool { return false },
	func(v int) bool { return v%2 == 0 },
	func(v int) bool { return v%5 != 0 },
}

// replay decodes ops into a single-threaded sequence of every deque
// operation — op%6 selects Push, Pop, Steal, StealIf (predicate op/6),
// PushLazy, Publish — and runs it on the THE deque and on the Locked
// reference side by side. Every value, ok flag and published count must
// match, as must the public length after every op: steals see [head, tail)
// only, Pop is LIFO over both regions, and a lazy push or private Pop that
// finds the public part dry republishes. At the end both are published and
// drained from the top.
func replay(ops []byte) error {
	d, ref := &Deque[int]{}, &Locked[int]{}
	next := 0
	for i, op := range ops {
		var gv, wv, gn, wn int
		var gok, wok bool
		name := ""
		switch op % 6 {
		case 0:
			name = "Push"
			d.Push(next)
			ref.Push(next)
			next++
		case 1:
			name = "Pop"
			gn, gok = d.PopRepublish(&gv)
			wn, wok = ref.PopRepublish(&wv)
		case 2:
			name = "Steal"
			gv, gok = d.Steal()
			wv, wok = ref.Steal()
		case 3:
			name = "StealIf"
			pred := stealPreds[int(op/6)%len(stealPreds)]
			gv, gok = d.StealIf(pred)
			wv, wok = ref.StealIf(pred)
		case 4:
			name = "PushLazy"
			gn = d.PushLazy(&next)
			wn = ref.PushLazy(&next)
			next++
		case 5:
			name = "Publish"
			gn = d.Publish()
			wn = ref.Publish()
		}
		if gok != wok || gv != wv || gn != wn {
			return fmt.Errorf("op %d: %s = (%d,%d,%v), reference (%d,%d,%v)", i, name, gv, gn, gok, wv, wn, wok)
		}
		if d.Len() != ref.Len() {
			return fmt.Errorf("op %d: %s left Len=%d, reference %d", i, name, d.Len(), ref.Len())
		}
	}
	if gn, wn := d.Publish(), ref.Publish(); gn != wn {
		return fmt.Errorf("final Publish = %d, reference %d", gn, wn)
	}
	for j := 0; ; j++ {
		gv, gok := d.Steal()
		wv, wok := ref.Steal()
		if gok != wok || gv != wv {
			return fmt.Errorf("drain %d: Steal = (%d,%v), reference (%d,%v)", j, gv, gok, wv, wok)
		}
		if !gok {
			return nil
		}
	}
}

// Property: any interleaved single-threaded sequence of operations behaves
// identically on the THE deque and the locked reference.
func TestQuickDifferentialSequential(t *testing.T) {
	prop := func(ops []byte) bool { return replay(ops) == nil }
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentNoLossNoDup runs one owner — pushing lazily, popping, now
// and then publishing — against thieves that StealIf with accepting and
// rejecting predicates, and verifies every pushed value is consumed exactly
// once: the core safety property, over both regions of the deque.
func TestConcurrentNoLossNoDup(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := &Deque[int]{}
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64

	record := func(v int) {
		if seen[v].Add(1) != 1 {
			t.Errorf("value %d consumed more than once", v)
		}
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func(parity int) {
			defer wg.Done()
			// Two thieves accept even values only, two odd ones only: the top
			// entry is rejected by half of them and taken by the other half.
			pred := func(v int) bool { return v%2 == parity }
			for {
				if v, ok := d.StealIf(pred); ok {
					record(v)
					continue
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i % 2)
	}

	// Owner: lazy pushes in bursts, pops some of its own, publishes rarely.
	for v := 0; v < total; {
		burst := 1 + v%7
		for i := 0; i < burst && v < total; i++ {
			d.PushLazy(&v)
			v++
		}
		if v%3 == 0 {
			if got, ok := d.Pop(); ok {
				record(got)
			}
		}
		if v%11 == 0 {
			d.Publish()
		}
	}
	// Owner drains its own remainder, private entries included.
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		record(v)
	}
	close(stop)
	wg.Wait()
	if d.Publish() != 0 || d.Len() != 0 {
		t.Errorf("entries left after the owner's Pop failed: Len=%d", d.Len())
	}
	if got := consumed.Load(); got != total {
		t.Errorf("consumed %d values, want %d", got, total)
	}
}

// TestConcurrentStealersOnly floods the deque and lets thieves race each
// other with no owner pops in flight.
func TestConcurrentStealersOnly(t *testing.T) {
	const total = 10000
	d := &Deque[int]{}
	for i := 0; i < total; i++ {
		d.Push(i)
	}
	var sum atomic.Int64
	var count atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := d.Steal()
				if !ok {
					return
				}
				sum.Add(int64(v))
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	if count.Load() != total {
		t.Errorf("stole %d, want %d", count.Load(), total)
	}
	want := int64(total) * (total - 1) / 2
	if sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func BenchmarkPushPop(b *testing.B) {
	d := &Deque[int]{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}

func BenchmarkPushSteal(b *testing.B) {
	d := &Deque[int]{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Steal()
	}
}

func BenchmarkLockedPushPop(b *testing.B) {
	d := &Locked[int]{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(i)
		d.Pop()
	}
}
