package stack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fibril/internal/vm"
)

// eventually waits up to five seconds for cond, failing the test with what
// it was waiting for.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// splitmix64 is the same tiny seeded rng the conformance generator uses.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D4DB3DF725CE8C
	return z ^ (z >> 31)
}

// poolModel is the reference the pool is replayed against: a trivially
// correct sequential pool with the same counters.
type poolModel struct {
	limit    int
	created  int
	inUse    int
	maxInUse int
	free     int
	closed   bool
}

func (m *poolModel) checkout() {
	m.inUse++
	if m.inUse > m.maxInUse {
		m.maxInUse = m.inUse
	}
}

// driveSequential replays one seeded op sequence against the pool and the
// model, failing on the first counter divergence.
func driveSequential(t *testing.T, p *Pool, limit int, seed uint64, ops int) {
	t.Helper()
	m := &poolModel{limit: limit}
	var held []*Stack
	state := seed
	for i := 0; i < ops; i++ {
		r := splitmix64(&state)
		switch r % 4 {
		case 0, 1: // Take, skipped when it would block
			if m.closed {
				s, err := p.Take(0)
				if s != nil || err != nil {
					t.Fatalf("seed=%#x op %d: Take on closed pool = %v,%v", seed, i, s, err)
				}
				continue
			}
			if m.free == 0 && m.limit > 0 && m.created == m.limit {
				continue
			}
			s, err := p.Take(0)
			if err != nil || s == nil {
				t.Fatalf("seed=%#x op %d: Take = %v,%v", seed, i, s, err)
			}
			held = append(held, s)
			if m.free > 0 {
				m.free--
			} else {
				m.created++
			}
			m.checkout()
		case 2: // Put
			if len(held) == 0 {
				continue
			}
			pick := int(r>>16) % len(held)
			s := held[pick]
			held = append(held[:pick], held[pick+1:]...)
			p.Put(0, s)
			m.inUse--
			m.free++
		case 3: // Close / Reopen
			if m.closed {
				p.Reopen()
				m.closed = false
			} else {
				p.Close()
				m.closed = true
			}
		}
		if got := p.InUse(); got != m.inUse {
			t.Fatalf("seed=%#x op %d: InUse = %d, want %d", seed, i, got, m.inUse)
		}
	}
	if got := p.Created(); got != m.created {
		t.Errorf("seed=%#x: Created = %d, want %d", seed, got, m.created)
	}
	if got := p.MaxInUse(); got != m.maxInUse {
		t.Errorf("seed=%#x: MaxInUse = %d, want %d", seed, got, m.maxInUse)
	}
	if got := p.Stalls(); got != 0 {
		t.Errorf("seed=%#x: Stalls = %d on a never-blocking sequence", seed, got)
	}
	// Quiescence conservation: everything ever created is either still
	// held or visible to ForEachFree.
	freeCount := 0
	p.ForEachFree(func(*Stack) { freeCount++ })
	if freeCount+len(held) != m.created {
		t.Errorf("seed=%#x: free %d + held %d != created %d", seed, freeCount, len(held), m.created)
	}
}

// TestPoolCountersMatchModel replays seeded op programs, bounded and
// unbounded, against the model pool.
func TestPoolCountersMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		limit := 0
		if seed%3 == 0 {
			limit = int(seed%5) + 1
		}
		driveSequential(t, NewPool(vm.NewAddressSpace(), 4, limit), limit, seed, 200)
	}
}

// FuzzPool exercises Take/Put/Close/Reopen interleavings against the model
// pool.
func FuzzPool(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(0))
	f.Add(uint64(42), uint16(200), uint8(2))
	f.Add(uint64(0xDEADBEEF), uint16(120), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, limitByte uint8) {
		limit := int(limitByte % 8)
		driveSequential(t, NewPool(vm.NewAddressSpace(), 2, limit), limit, seed, int(ops%512)+1)
	})
}

// The concurrency tests below each run as one "global" subtest only so that
// their recorded test names stay stable.

// TestPoolTakeMapFailure: a failing map must repair created/inUse/maxInUse,
// return a typed *MapError instead of panicking, and leave the pool fully
// usable.
func TestPoolTakeMapFailure(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		p := NewPool(vm.NewAddressSpace(), 4, 1)
		fail := true
		p.newStack = func(as *vm.AddressSpace, pages, id int) (*Stack, error) {
			if fail {
				fail = false
				return nil, errors.New("injected map failure")
			}
			return New(as, pages, id)
		}
		_, err := p.Take(0)
		var me *MapError
		if !errors.As(err, &me) {
			t.Fatalf("Take = %v, want *MapError", err)
		}
		if me.Pages != 4 {
			t.Errorf("MapError.Pages = %d, want 4", me.Pages)
		}
		if c, u, m := p.Created(), p.InUse(), p.MaxInUse(); c != 0 || u != 0 || m != 0 {
			t.Errorf("after failed map: Created=%d InUse=%d MaxInUse=%d, want 0/0/0", c, u, m)
		}
		// The repaired slot is available again: the bounded limit of 1 still
		// admits a (now succeeding) create.
		s := mustTake(t, p, 0)
		if p.Created() != 1 || p.MaxInUse() != 1 {
			t.Errorf("after retry: Created=%d MaxInUse=%d, want 1/1", p.Created(), p.MaxInUse())
		}
		p.Put(0, s)
	})
}

// TestPoolMapFailureWakesWaiter pins the repair protocol's liveness: a
// blocked taker on a bounded pool must be woken when a concurrent create
// fails, so it can retry the released slot itself.
func TestPoolMapFailureWakesWaiter(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		p := NewPool(vm.NewAddressSpace(), 4, 1)
		entered := make(chan struct{})
		release := make(chan struct{})
		first := true
		p.newStack = func(as *vm.AddressSpace, pages, id int) (*Stack, error) {
			if first {
				first = false
				close(entered)
				<-release
				return nil, errors.New("injected map failure")
			}
			return New(as, pages, id)
		}
		failErr := make(chan error)
		go func() { _, err := p.Take(0); failErr <- err }()
		<-entered // the failing create holds the pool's only slot
		got := make(chan *Stack)
		go func() { s, _ := p.Take(1); got <- s }()
		eventually(t, "the second taker to stall", func() bool { return p.Stalls() == 1 })
		close(release)
		var me *MapError
		if err := <-failErr; !errors.As(err, &me) {
			t.Fatalf("first Take = %v, want *MapError", err)
		}
		if s := <-got; s == nil {
			t.Fatal("woken taker did not get a stack")
		}
		if p.Created() != 1 || p.Stalls() != 1 {
			t.Errorf("Created=%d Stalls=%d, want 1/1", p.Created(), p.Stalls())
		}
	})
}

// TestPoolCloseUnblocksTakers: closing a bounded pool with blocked thieves,
// racing a Put, must let every taker unwind (nil from the close, or the
// returned stack).
func TestPoolCloseUnblocksTakers(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		const takers = 4
		p := NewPool(vm.NewAddressSpace(), 4, 2)
		mustTake(t, p, 0)
		b := mustTake(t, p, 1)
		results := make(chan *Stack, takers)
		for i := 0; i < takers; i++ {
			go func() {
				s, err := p.Take(i)
				if err != nil {
					t.Errorf("blocked Take: %v", err)
				}
				results <- s
			}()
		}
		eventually(t, "every taker to stall", func() bool { return p.Stalls() == takers })
		// Race a Put against Close: at most one taker may receive b, everyone
		// else must unwind with nil.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.Put(1, b) }()
		go func() { defer wg.Done(); p.Close() }()
		wg.Wait()
		handedOut := 0
		for i := 0; i < takers; i++ {
			select {
			case s := <-results:
				if s != nil {
					handedOut++
					p.Put(0, s)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a taker never unwound after Close")
			}
		}
		if handedOut > 1 {
			t.Errorf("%d takers got a stack, at most 1 possible", handedOut)
		}
		if p.Stalls() != takers {
			t.Errorf("Stalls = %d, want one per taker, %d", p.Stalls(), takers)
		}
		// Reopen: the pool must serve again, from the freed stack.
		p.Reopen()
		mustTake(t, p, 2)
		if p.Created() != 2 {
			t.Errorf("Created = %d after reopen, want still 2", p.Created())
		}
	})
}

// sleepCounter counts the times a taker went to sleep on the pool's
// condition variable: Cond.Wait is the only caller of its Unlock.
type sleepCounter struct {
	sync.Locker
	n atomic.Int32
}

func (c *sleepCounter) Unlock() {
	c.n.Add(1)
	c.Locker.Unlock()
}

// TestPoolStallCountsTakersOnce: a Take woken with nothing free — here by a
// Reopen — goes back to sleep without being counted again, so PoolStalls
// counts the Takes that waited, not their wake-ups.
func TestPoolStallCountsTakersOnce(t *testing.T) {
	p := NewPool(vm.NewAddressSpace(), 4, 1)
	sleeps := &sleepCounter{Locker: &p.mu}
	p.cond = sync.NewCond(sleeps)
	held := mustTake(t, p, 0)
	got := make(chan *Stack)
	go func() { s, _ := p.Take(1); got <- s }()
	eventually(t, "the taker to sleep", func() bool { return sleeps.n.Load() == 1 })
	p.Reopen()
	eventually(t, "the taker to sleep again", func() bool { return sleeps.n.Load() == 2 })
	p.Put(0, held)
	if s := <-got; s != held {
		t.Fatalf("the waiting Take got %v, want the returned stack", s)
	}
	if n := p.Stalls(); n != 1 {
		t.Errorf("Stalls = %d for one Take woken twice, want 1", n)
	}
}

// TestShardedConcurrentStress hammers Take and Put from many goroutines and
// checks the quiescence laws the conformance oracles rely on: InUse drains
// to zero, every stack ever created is findable in the free set, and —
// the pool being serialized — a stack is created only when none is free,
// so the creations are the peak checkout: MaxInUse == Created.
func TestShardedConcurrentStress(t *testing.T) {
	t.Run("global", func(t *testing.T) {
		const workers, rounds = 8, 300
		p := NewPool(vm.NewAddressSpace(), 2, 0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					s, err := p.Take(w)
					if err != nil || s == nil {
						t.Errorf("worker %d: Take = %v,%v", w, s, err)
						return
					}
					if i%3 == 0 {
						s.Push(vm.PageSize)
						s.Pop(0)
					}
					p.Put(w, s)
				}
			}()
		}
		wg.Wait()
		if got := p.InUse(); got != 0 {
			t.Errorf("InUse = %d at quiescence, want 0", got)
		}
		if p.MaxInUse() != p.Created() {
			t.Errorf("MaxInUse %d != Created %d", p.MaxInUse(), p.Created())
		}
		if p.MaxInUse() > workers {
			t.Errorf("MaxInUse = %d with %d single-stack workers", p.MaxInUse(), workers)
		}
		free := 0
		seen := map[*Stack]bool{}
		p.ForEachFree(func(s *Stack) {
			if seen[s] {
				t.Errorf("stack %d enumerated twice", s.ID())
			}
			seen[s] = true
			free++
		})
		if free != p.Created() {
			t.Errorf("free %d != created %d at quiescence", free, p.Created())
		}
		// ReclaimFree drains every touched page off the free stacks.
		calls, pages := p.ReclaimFree(nil)
		if pages > 0 && calls == 0 {
			t.Errorf("ReclaimFree freed %d pages in 0 calls", pages)
		}
		p.ForEachFree(func(s *Stack) {
			if r := s.ResidentPages(); r != 0 {
				t.Errorf("stack %d: %d resident pages after ReclaimFree", s.ID(), r)
			}
		})
	})
}

// TestMapErrorFormat pins the error string and unwrapping.
func TestMapErrorFormat(t *testing.T) {
	inner := errors.New("out of address space")
	err := &MapError{Pages: 256, Err: inner}
	want := "stack: pool cannot map a new 256-page stack: out of address space"
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if !errors.Is(err, inner) {
		t.Error("MapError does not unwrap to its cause")
	}
	var check error = fmt.Errorf("wrapped: %w", err)
	var me *MapError
	if !errors.As(check, &me) || me.Pages != 256 {
		t.Error("MapError not recoverable through errors.As")
	}
}
