package deque

import "testing"

// TestSizeClampsDuringTransientPop pins the snapshot clamps: mid-Pop the
// deque stores the decremented tail before checking for a conflict, so a
// concurrent Len/LazyHint reader can observe tail < head. The
// snapshots must clamp to empty, never report a negative size, and
// LazyHint must read the transient state as "publish more parallelism",
// not underflow.
func TestSizeClampsDuringTransientPop(t *testing.T) {
	t.Run("THE", func(t *testing.T) {
		d := &Deque[int]{}
		d.Push(1)
		d.Pop()
		h := d.head.Load()
		d.tail.Store(h - 1) // what a racing reader sees mid-Pop on empty
		if n := d.Len(); n != 0 {
			t.Errorf("Len = %d during transient tail < head, want 0", n)
		}
		if !d.LazyHint() {
			t.Error("LazyHint = false during transient tail < head")
		}
		d.tail.Store(h) // restore the invariant
		if _, ok := d.Pop(); ok {
			t.Error("Pop succeeded on an empty deque after restore")
		}
	})
}

// TestPushReservesSlackSlot pins the THE ring's one-slot reserve: a
// lock-holding thief advances head past the entry it is still inspecting,
// so a push growing only at a completely full ring could wrap onto that
// in-flight slot (observed as a lost value and a duplicated zero under
// the race detector). The ring must grow one slot early — counted against
// bot, so private entries fill the ring like public ones.
func TestPushReservesSlackSlot(t *testing.T) {
	for name, push := range map[string]func(*Deque[int], int){
		"eager": func(d *Deque[int], v int) { d.Push(v) },
		"lazy":  func(d *Deque[int], v int) { d.PushLazy(&v) },
	} {
		t.Run(name, func(t *testing.T) {
			d := &Deque[int]{}
			for i := 0; i < initialCapacity-1; i++ {
				push(d, i)
			}
			if len(d.buf) != initialCapacity {
				t.Fatalf("ring grew at %d entries: len=%d, want %d",
					initialCapacity-1, len(d.buf), initialCapacity)
			}
			// The next push would leave zero slack; it must grow first.
			push(d, initialCapacity-1)
			if len(d.buf) <= initialCapacity {
				t.Fatalf("ring did not grow at the slack threshold: len=%d", len(d.buf))
			}
			d.Publish()
			for i := 0; i < initialCapacity; i++ {
				if v, ok := d.Steal(); !ok || v != i {
					t.Fatalf("post-grow Steal = (%d,%v), want (%d,true)", v, ok, i)
				}
			}
		})
	}
}
