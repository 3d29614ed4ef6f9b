package deque

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// dequeAPI lets the same tests run against both implementations.
type dequeAPI[T any] interface {
	Push(T)
	Pop() (T, bool)
	Steal() (T, bool)
	Len() int
	Empty() bool
}

var (
	_ dequeAPI[int] = (*Deque[int])(nil)
	_ dequeAPI[int] = (*Locked[int])(nil)
)

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
			if !d.Empty() || d.Len() != 0 {
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

func TestGrowthAfterWrapAround(t *testing.T) {
	d := &Deque[int]{}
	// Advance head and tail far past the initial ring size so indices wrap,
	// then force growth and verify contents.
	for round := 0; round < 10; round++ {
		for i := 0; i < initialCapacity-1; i++ {
			d.Push(round*1000 + i)
		}
		for i := 0; i < initialCapacity-1; i++ {
			if _, ok := d.Steal(); !ok {
				t.Fatal("steal failed during warm-up")
			}
		}
	}
	const n = initialCapacity * 3
	for i := 0; i < n; i++ {
		d.Push(i)
	}
	for i := 0; i < n; i++ {
		if v, ok := d.Steal(); !ok || v != i {
			t.Fatalf("post-wrap Steal = %d,%v, want %d", v, ok, i)
		}
	}
}

// Property: any interleaved single-threaded sequence of push/pop/steal
// behaves identically on the THE deque and the locked reference.
func TestQuickDifferentialSequential(t *testing.T) {
	prop := func(ops []uint8) bool {
		a := &Deque[int]{}
		b := &Locked[int]{}
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				a.Push(next)
				b.Push(next)
				next++
			case 1:
				av, aok := a.Pop()
				bv, bok := b.Pop()
				if av != bv || aok != bok {
					return false
				}
			case 2:
				av, aok := a.Steal()
				bv, bok := b.Steal()
				if av != bv || aok != bok {
					return false
				}
			}
			if a.Len() != b.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentNoLossNoDup runs one owner (push/pop) against several
// thieves and verifies every pushed value is consumed exactly once — the
// core safety property the THE protocol must provide.
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
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					record(v)
					continue
				}
				select {
				case <-stop:
					// Drain anything left after the owner finished.
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						record(v)
					}
				default:
				}
			}
		}()
	}

	// Owner: pushes in bursts, pops some of its own.
	for v := 0; v < total; {
		burst := 1 + v%7
		for i := 0; i < burst && v < total; i++ {
			d.Push(v)
			v++
		}
		if v%3 == 0 {
			if got, ok := d.Pop(); ok {
				record(got)
			}
		}
	}
	// Owner drains its own remainder.
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		record(v)
	}
	close(stop)
	wg.Wait()
	// One final drain in case a thief lost a race at the very end.
	for {
		v, ok := d.Steal()
		if !ok {
			break
		}
		record(v)
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
