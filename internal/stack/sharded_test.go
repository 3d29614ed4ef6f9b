package stack

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fibril/internal/vm"
)

// poolVariants returns both Pooler implementations over a fresh address
// space each, so every test in this file runs against the single-lock
// reference and the sharded pool alike.
func poolVariants(pages, limit int) []struct {
	name string
	pool Pooler
} {
	return []struct {
		name string
		pool Pooler
	}{
		{"global", NewPool(vm.NewAddressSpace(), pages, limit)},
		{"sharded", NewShardedPool(vm.NewAddressSpace(), pages, limit, 4)},
	}
}

// setNewStackHook swaps the pool's stack constructor, to inject map
// failures.
func setNewStackHook(p Pooler, hook func(*vm.AddressSpace, int, int) (*Stack, error)) {
	switch pp := p.(type) {
	case *Pool:
		pp.newStack = hook
	case *ShardedPool:
		pp.newStack = hook
	default:
		panic("unknown pool type")
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

// poolModel is the reference the differential tests compare both pools
// against: a trivially correct sequential pool with the same counters.
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

// driveSequential replays one seeded op sequence against a pool and the
// model, failing on the first counter divergence. All ops are sequential,
// so the sharded pool's sampled MaxInUse must be exact too.
func driveSequential(t *testing.T, name string, p Pooler, limit int, seed uint64, ops int) {
	t.Helper()
	m := &poolModel{limit: limit}
	var held []*Stack
	state := seed
	for i := 0; i < ops; i++ {
		r := splitmix64(&state)
		shard := int(r >> 8 % 4) // the sharded variant has four
		switch r % 4 {
		case 0, 1: // Take, skipped when it would block
			if m.closed {
				s, err := p.Take(shard)
				if s != nil || err != nil {
					t.Fatalf("%s seed=%#x op %d: Take on closed pool = %v,%v", name, seed, i, s, err)
				}
				continue
			}
			if m.free == 0 && m.limit > 0 && m.created == m.limit {
				continue
			}
			s, err := p.Take(shard)
			if err != nil || s == nil {
				t.Fatalf("%s seed=%#x op %d: Take = %v,%v", name, seed, i, s, err)
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
			p.Put(shard, s)
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
			t.Fatalf("%s seed=%#x op %d: InUse = %d, want %d", name, seed, i, got, m.inUse)
		}
	}
	if got := p.Created(); got != m.created {
		t.Errorf("%s seed=%#x: Created = %d, want %d", name, seed, got, m.created)
	}
	if got := p.MaxInUse(); got != m.maxInUse {
		t.Errorf("%s seed=%#x: MaxInUse = %d, want %d", name, seed, got, m.maxInUse)
	}
	if got := p.Stalls(); got != 0 {
		t.Errorf("%s seed=%#x: Stalls = %d on a never-blocking sequence", name, seed, got)
	}
	// Quiescence conservation: everything ever created is either still
	// held or visible to ForEachFree.
	freeCount := 0
	p.ForEachFree(func(*Stack) { freeCount++ })
	if freeCount+len(held) != m.created {
		t.Errorf("%s seed=%#x: free %d + held %d != created %d",
			name, seed, freeCount, len(held), m.created)
	}
}

// TestShardedVsGlobalCounters pins the sharded pool's counter totals to the
// single-lock reference on identical seeded op programs (satellite: the
// differential pool test).
func TestShardedVsGlobalCounters(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		limit := 0
		if seed%3 == 0 {
			limit = int(seed%5) + 1
		}
		for _, v := range poolVariants(4, limit) {
			driveSequential(t, v.name, v.pool, limit, seed, 200)
			v.pool.Drain()
		}
	}
}

// FuzzPool exercises Take/Put/Close/Reopen interleavings against
// the model pool, on both implementations (satellite: pool fuzz target).
func FuzzPool(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(0))
	f.Add(uint64(42), uint16(200), uint8(2))
	f.Add(uint64(0xDEADBEEF), uint16(120), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, limitByte uint8) {
		limit := int(limitByte % 8)
		n := int(ops%512) + 1
		for _, v := range poolVariants(2, limit) {
			driveSequential(t, v.name, v.pool, limit, seed, n)
			v.pool.Drain()
		}
	})
}

// TestPoolTakeMapFailure is the satellite bugfix regression: a failing map
// must repair created/inUse/maxInUse, return a typed *MapError instead of
// panicking, and leave the pool fully usable.
func TestPoolTakeMapFailure(t *testing.T) {
	for _, v := range poolVariants(4, 1) {
		t.Run(v.name, func(t *testing.T) {
			fail := true
			setNewStackHook(v.pool, func(as *vm.AddressSpace, pages, id int) (*Stack, error) {
				if fail {
					fail = false
					return nil, errors.New("injected map failure")
				}
				return New(as, pages, id)
			})
			_, err := v.pool.Take(0)
			var me *MapError
			if !errors.As(err, &me) {
				t.Fatalf("Take = %v, want *MapError", err)
			}
			if me.Pages != 4 {
				t.Errorf("MapError.Pages = %d, want 4", me.Pages)
			}
			if c, u, m := v.pool.Created(), v.pool.InUse(), v.pool.MaxInUse(); c != 0 || u != 0 || m != 0 {
				t.Errorf("after failed map: Created=%d InUse=%d MaxInUse=%d, want 0/0/0", c, u, m)
			}
			// The repaired slot is available again: the bounded limit of 1
			// still admits a (now succeeding) create.
			s := mustTake(t, v.pool, 0)
			if v.pool.Created() != 1 || v.pool.MaxInUse() != 1 {
				t.Errorf("after retry: Created=%d MaxInUse=%d, want 1/1",
					v.pool.Created(), v.pool.MaxInUse())
			}
			v.pool.Put(0, s)
			v.pool.Drain()
		})
	}
}

// TestPoolMapFailureWakesWaiter pins the repair protocol's liveness: a
// blocked taker on a bounded pool must be woken when a concurrent create
// fails, so it can retry the released slot itself.
func TestPoolMapFailureWakesWaiter(t *testing.T) {
	for _, v := range poolVariants(4, 1) {
		t.Run(v.name, func(t *testing.T) {
			entered := make(chan struct{})
			release := make(chan struct{})
			first := true
			setNewStackHook(v.pool, func(as *vm.AddressSpace, pages, id int) (*Stack, error) {
				if first {
					first = false
					close(entered)
					<-release
					return nil, errors.New("injected map failure")
				}
				return New(as, pages, id)
			})
			failErr := make(chan error)
			go func() { _, err := v.pool.Take(0); failErr <- err }()
			<-entered // the failing create holds the pool's only slot
			got := make(chan *Stack)
			go func() { s, _ := v.pool.Take(1); got <- s }()
			deadline := time.Now().Add(5 * time.Second)
			for v.pool.Stalls() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("second taker never stalled on the bounded pool")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			var me *MapError
			if err := <-failErr; !errors.As(err, &me) {
				t.Fatalf("first Take = %v, want *MapError", err)
			}
			s := <-got
			if s == nil {
				t.Fatal("woken taker did not get a stack")
			}
			if v.pool.Created() != 1 {
				t.Errorf("Created = %d, want 1", v.pool.Created())
			}
			v.pool.Put(1, s)
			v.pool.Drain()
		})
	}
}

// TestPoolCloseUnblocksTakers is the satellite -race regression: closing a
// bounded pool with blocked thieves, racing a Put, must let every taker
// unwind (nil from the close, or the returned stack).
func TestPoolCloseUnblocksTakers(t *testing.T) {
	const takers = 4
	for _, v := range poolVariants(4, 2) {
		t.Run(v.name, func(t *testing.T) {
			a := mustTake(t, v.pool, 0)
			b := mustTake(t, v.pool, 1)
			results := make(chan *Stack, takers)
			for i := 0; i < takers; i++ {
				go func(shard int) {
					s, err := v.pool.Take(shard)
					if err != nil {
						t.Errorf("blocked Take: %v", err)
					}
					results <- s
				}(i)
			}
			deadline := time.Now().Add(5 * time.Second)
			for v.pool.Stalls() < takers {
				if time.Now().After(deadline) {
					t.Fatalf("only %d/%d takers stalled", v.pool.Stalls(), takers)
				}
				time.Sleep(time.Millisecond)
			}
			// Race a Put against Close: at most one taker may receive b,
			// everyone else must unwind with nil.
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); v.pool.Put(1, b) }()
			go func() { defer wg.Done(); v.pool.Close() }()
			wg.Wait()
			handedOut := 0
			for i := 0; i < takers; i++ {
				select {
				case s := <-results:
					if s != nil {
						handedOut++
						v.pool.Put(0, s)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("a taker never unwound after Close")
				}
			}
			if handedOut > 1 {
				t.Errorf("%d takers got a stack, at most 1 possible", handedOut)
			}
			// Reopen: the pool must serve again, from the freed stack.
			v.pool.Reopen()
			s := mustTake(t, v.pool, 2)
			if v.pool.Created() != 2 {
				t.Errorf("Created = %d after reopen, want still 2", v.pool.Created())
			}
			v.pool.Put(2, s)
			v.pool.Put(0, a)
			v.pool.Drain()
		})
	}
}

// TestShardedConcurrentStress hammers the lock-free fast path from many
// goroutines and checks the quiescence invariants the conformance oracles
// rely on: InUse drains to zero, MaxInUse never exceeds Created, and every
// stack ever created is findable in the free set. The single-lock reference
// runs the same rounds and is held to the stricter law only a serialized
// pool can promise: a stack is created only when none is free, so the
// creations ARE the peak checkout. (The sharded pool can miss a stack a
// concurrent Put is still publishing and create a fresh one.)
func TestShardedConcurrentStress(t *testing.T) {
	const workers = 8
	t.Run("sharded", func(t *testing.T) {
		p := NewShardedPool(vm.NewAddressSpace(), 2, 0, workers)
		concurrentStress(t, p, workers)
		p.Drain()
	})
	t.Run("global", func(t *testing.T) {
		p := NewPool(vm.NewAddressSpace(), 2, 0)
		concurrentStress(t, p, workers)
		if p.MaxInUse() != p.Created() {
			t.Errorf("serialized pool: MaxInUse %d != Created %d", p.MaxInUse(), p.Created())
		}
		p.Drain()
	})
}

func concurrentStress(t *testing.T, p Pooler, workers int) {
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, err := p.Take(shard)
				if err != nil || s == nil {
					t.Errorf("shard %d: Take = %v,%v", shard, s, err)
					return
				}
				if i%3 == 0 {
					s.Push(vm.PageSize)
					s.Pop(0)
				}
				p.Put(shard, s)
			}
		}(w)
	}
	wg.Wait()
	if got := p.InUse(); got != 0 {
		t.Errorf("InUse = %d at quiescence, want 0", got)
	}
	if p.MaxInUse() > p.Created() {
		t.Errorf("MaxInUse %d > Created %d", p.MaxInUse(), p.Created())
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
}

// TestShardedBoundedBlocksThenUnblocks mirrors the single-lock pool's
// bounded-blocking test on the sharded implementation.
func TestShardedBoundedBlocksThenUnblocks(t *testing.T) {
	p := NewShardedPool(vm.NewAddressSpace(), 4, 2, 2)
	a := mustTake(t, p, 0)
	b := mustTake(t, p, 1)
	done := make(chan *Stack)
	go func() { s, _ := p.Take(0); done <- s }()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("taker never stalled")
		}
		time.Sleep(time.Millisecond)
	}
	p.Put(1, b)
	got := <-done
	if got == nil {
		t.Fatal("blocked Take returned nil from an open pool")
	}
	if p.Created() != 2 {
		t.Errorf("Created = %d, want 2", p.Created())
	}
	p.Put(0, a)
	p.Put(0, got)
	p.Drain()
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
