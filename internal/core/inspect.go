package core

import "fibril/internal/stack"

// Quiescence introspection for the conformance harness (internal/check).
// These accessors read state that is only stable when the runtime is idle —
// between Run calls — which is exactly when the harness's oracles fire:
// after a Run returns, every thief goroutine has unwound, every stack is
// back in the pool, and the busy-leaves property demands that no work was
// left behind.

// QueuedTasks returns the number of published tasks sitting in the worker
// deques: while workers run it misses what each of them holds privately,
// at quiescence it is exact (a worker leaves its deque empty, private part
// included, before it goes idle — W.drain).
// After a completed Run this must be zero: a leftover task is a fork that
// was never executed, a direct violation of the exactly-once guarantee (and
// of busy-leaves — the run ended while work existed).
func (rt *Runtime) QueuedTasks() int {
	n := 0
	for _, w := range rt.workers {
		n += w.deque.Len()
	}
	return n
}

// ParkedThieves returns how many worker slots are free on the runtime's
// park lot: given back by thieves that searched out their budget and parked,
// and not given out again (racy snapshot; exact at quiescence). After a
// completed Run this must be zero — Run closes the lot, which takes every
// free slot off it.
func (rt *Runtime) ParkedThieves() int { return int(rt.park.nfree.Load()) }

// MaxStackHighWaterPages returns the largest page high-water mark over the
// stacks currently in the runtime's pool. At quiescence every stack the
// runtime ever used is in the pool (suspended and active goroutines have
// all retired), so this is the per-linear-stack space high-water of the
// whole run — the quantity the paper's S1-based bounds constrain.
func (rt *Runtime) MaxStackHighWaterPages() int {
	max := 0
	rt.pool.ForEachFree(func(s *stack.Stack) {
		if h := s.HighWaterPages(); h > max {
			max = h
		}
	})
	return max
}
