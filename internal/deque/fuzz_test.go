package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

// dequeModel is the trivially-correct reference: Push appends at the
// bottom, Pop takes the bottom (youngest), Steal/StealIf take the top
// (oldest).
type dequeModel struct{ s []int }

func (m *dequeModel) Push(v int) { m.s = append(m.s, v) }

func (m *dequeModel) Pop() (int, bool) {
	if len(m.s) == 0 {
		return 0, false
	}
	v := m.s[len(m.s)-1]
	m.s = m.s[:len(m.s)-1]
	return v, true
}

func (m *dequeModel) Steal() (int, bool) {
	if len(m.s) == 0 {
		return 0, false
	}
	v := m.s[0]
	m.s = m.s[1:]
	return v, true
}

func (m *dequeModel) StealIf(pred func(int) bool) (int, bool) {
	if len(m.s) == 0 || !pred(m.s[0]) {
		return 0, false
	}
	return m.Steal()
}

// FuzzDequeOps decodes fuzz bytes into a Push/Pop/Steal/StealIf sequence
// and checks the deque against the slice model — every result value and ok
// flag must match exactly, and so must the drained remainder. Run with
//
//	go test -fuzz=FuzzDequeOps -fuzztime=30s ./internal/deque/
func FuzzDequeOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 3, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 2, 2, 2})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 7, 11, 15})
	f.Fuzz(func(t *testing.T, ops []byte) {
		preds := []func(int) bool{
			func(int) bool { return true },
			func(int) bool { return false },
			func(v int) bool { return v%2 == 0 },
			func(v int) bool { return v%5 != 0 },
		}
		d := &Deque[int]{}
		model := &dequeModel{}
		next := 0
		for i, op := range ops {
			switch op % 4 {
			case 0:
				d.Push(next)
				model.Push(next)
				next++
			case 1:
				gv, gok := d.Pop()
				wv, wok := model.Pop()
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: Pop = (%d,%v), model (%d,%v)", i, gv, gok, wv, wok)
				}
			case 2:
				gv, gok := d.Steal()
				wv, wok := model.Steal()
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: Steal = (%d,%v), model (%d,%v)", i, gv, gok, wv, wok)
				}
			case 3:
				pred := preds[int(op/4)%len(preds)]
				gv, gok := d.StealIf(pred)
				wv, wok := model.StealIf(pred)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: StealIf = (%d,%v), model (%d,%v)", i, gv, gok, wv, wok)
				}
			}
		}
		if d.Len() != len(model.s) {
			t.Fatalf("Len=%d, model has %d", d.Len(), len(model.s))
		}
		// Drain from the top: must replay the model front-to-back.
		for j := 0; len(model.s) > 0; j++ {
			gv, gok := d.Steal()
			wv, _ := model.Steal()
			if !gok || gv != wv {
				t.Fatalf("drain %d: Steal = (%d,%v), want (%d,true)", j, gv, gok, wv)
			}
		}
		if _, ok := d.Steal(); ok {
			t.Fatal("deque non-empty after drain")
		}
	})
}

// FuzzDequeConcurrent replays the fuzz-chosen owner schedule (even byte:
// Push, odd: Pop) against two concurrent thieves and checks conservation:
// every pushed value is consumed exactly once, across owner pops, steals,
// and the final drain.
func FuzzDequeConcurrent(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
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
			go func() {
				defer wg.Done()
				for {
					if v, ok := d.Steal(); ok {
						record(v)
						continue
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				d.Push(next)
				next++
			} else if v, ok := d.Pop(); ok {
				record(v)
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
