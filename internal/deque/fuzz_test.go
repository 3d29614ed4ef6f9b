package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

// FuzzDequeOps decodes fuzz bytes into a sequence of every deque operation
// (see replay) and checks the deque against the Locked reference — every
// result value, ok flag and published count must match exactly, and so must
// the drained remainder. Run with
//
//	go test -fuzz=FuzzDequeOps -fuzztime=30s ./internal/deque/
func FuzzDequeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 3, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 7, 11, 15})
	// Lazy pushes behind one public entry, a steal, then the private pop
	// that republishes; and a publish in the middle of a private run.
	f.Add([]byte{4, 4, 4, 4, 2, 1, 2, 1, 1, 1})
	f.Add([]byte{4, 4, 5, 4, 4, 2, 2, 3, 9, 1, 5, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := replay(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDequeConcurrent replays the fuzz-chosen owner schedule (byte%4: 0 and
// 2 lazy push, 1 Pop, 3 Publish) against two concurrent thieves, one
// accepting even values only and one odd ones only, and checks conservation:
// every pushed value is consumed exactly once, across owner pops, steals,
// and the owner's final drain.
func FuzzDequeConcurrent(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 0, 3, 2, 1, 0, 0, 1, 3, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		d := &Deque[int]{}
		pushed := 0
		for _, op := range ops {
			if op%2 == 0 {
				pushed++
			}
		}
		seen := make([]int32, pushed)
		record := func(v int) { // called from owner and thieves: atomic
			if v < 0 || v >= pushed {
				t.Errorf("consumed out-of-range value %d", v)
				return
			}
			atomic.AddInt32(&seen[v], 1)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for thief := 0; thief < 2; thief++ {
			wg.Add(1)
			go func(parity int) {
				defer wg.Done()
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
			}(thief)
		}
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 2:
				d.PushLazy(&next)
				next++
			case 1:
				if v, ok := d.Pop(); ok {
					record(v)
				}
			case 3:
				d.Publish()
			}
		}
		for {
			v, ok := d.Pop()
			if !ok {
				break
			}
			record(v)
		}
		close(stop)
		wg.Wait()
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("value %d consumed %d times, want 1", v, n)
			}
		}
	})
}
