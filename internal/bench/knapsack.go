package bench

import (
	"sort"
	"sync/atomic"
	"unsafe"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// Knapsack is branch-and-bound 0/1 knapsack (paper: 32 items): items
// sorted by value density; each node either takes or skips the next item,
// pruning with the fractional upper bound against the best value found so
// far. The instance is a parity-hard subset-sum (odd weights, even
// capacity, value = weight), so the density bound prunes weakly and the
// search tree is substantial. The parallel version shares the incumbent
// through an atomic maximum, so pruning with a stale bound only ever
// prunes less — the optimum is deterministic even though the work is not.
// N is the item count.
var Knapsack = register(&Spec{
	Name:        "knapsack",
	Description: "Recursive knapsack",
	ArgDoc:      "N = number of items; capacity = half the total weight",
	Default:     Arg{N: 26},
	Paper:       Arg{N: 32},
	Sim:         Arg{N: 32},
	Serial: func(a Arg) uint64 {
		items, cap := ksInput(a.N)
		best := int64(0)
		ksSerial(items, 0, cap, 0, &best)
		return uint64(best)
	},
	Parallel: func(w *core.W, a Arg) uint64 {
		items, cap := ksInput(a.N)
		var best atomic.Int64
		ksArg(w, items, 0, cap, 0, &best)
		return uint64(best.Load())
	},
	Tree: func(a Arg) invoke.Task {
		items, cap := ksInput(a.N)
		best := new(int64)
		return ksTree(items, 0, cap, 0, best)
	},
})

type ksItem struct{ weight, value int64 }

// ksInput generates the reproducible parity-hard instance sorted by
// decreasing value density, plus the capacity.
func ksInput(n int) ([]ksItem, int64) {
	rng := splitmix64{state: 0xC0FFEE}
	items := make([]ksItem, n)
	var total int64
	for i := range items {
		w := 2*int64(rng.next()%25+10) + 1 // odd, 21..69
		items[i] = ksItem{weight: w, value: w}
		total += w
	}
	sort.Slice(items, func(i, j int) bool {
		// density descending; ties by weight for determinism
		di := items[i].value * items[j].weight
		dj := items[j].value * items[i].weight
		if di != dj {
			return di > dj
		}
		return items[i].weight < items[j].weight
	})
	c := total / 2
	c -= c % 2 // even capacity, odd weights: parity frustrates the bound
	return items, c
}

// ksBound is the fractional relaxation: current value plus the best
// possible use of the remaining capacity.
func ksBound(items []ksItem, i int, cap, value int64) int64 {
	for ; i < len(items) && cap > 0; i++ {
		it := items[i]
		if it.weight <= cap {
			cap -= it.weight
			value += it.value
		} else {
			return value + it.value*cap/it.weight
		}
	}
	return value
}

func ksSerial(items []ksItem, i int, cap, value int64, best *int64) {
	if value > *best {
		*best = value
	}
	if i == len(items) || cap == 0 {
		return
	}
	if ksBound(items, i, cap, value) <= *best {
		return
	}
	if items[i].weight <= cap {
		ksSerial(items, i+1, cap-items[i].weight, value+items[i].value, best)
	}
	ksSerial(items, i+1, cap, value, best)
}

// atomicMax raises *a to at least v.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ksCtx is one branch's argument record. Unlike fib's, it carries
// pointers (the items slice header and the shared incumbent) through the
// arena's unscanned payload; both stay independently reachable the whole
// time a child is in flight — the forking ksArg's own items parameter
// and the root caller's best live across the Join — as the arena's
// contract requires.
type ksCtx struct {
	items []ksItem
	i     int
	cap   int64
	value int64
	best  *atomic.Int64
}

const _ = uint(core.ScratchBytes - unsafe.Sizeof([2]ksCtx{}))

func ksArgTask(w *core.W, p unsafe.Pointer) {
	c := (*ksCtx)(p)
	ksArg(w, c.items, c.i, c.cap, c.value, c.best)
}

// ksArg is branch-and-bound on the zero-allocation ForkArg path: take
// branch forked, skip branch called, both argument records and the join
// frame in one arena block.
func ksArg(w *core.W, items []ksItem, i int, cap, value int64, best *atomic.Int64) {
	atomicMax(best, value)
	if i == len(items) || cap == 0 {
		return
	}
	if ksBound(items, i, cap, value) <= best.Load() {
		return
	}
	s := w.AcquireScratch()
	pay := (*[2]ksCtx)(s.Ptr())
	fr := s.Frame()
	w.Init(fr)
	if items[i].weight <= cap {
		pay[0] = ksCtx{items: items, i: i + 1, cap: cap - items[i].weight,
			value: value + items[i].value, best: best}
		w.ForkArgSized(fr, frameMedium, ksArgTask, unsafe.Pointer(&pay[0]))
	}
	pay[1] = ksCtx{items: items, i: i + 1, cap: cap, value: value, best: best}
	w.CallArgSized(frameMedium, ksArgTask, unsafe.Pointer(&pay[1]))
	w.Join(fr)
	w.ReleaseScratch(s)
}

// ksTree prunes against a shared incumbent, like any real B&B. The
// incumbent advances in whatever order the consumer expands nodes, so the
// tree's exact size depends on the schedule — faithful to parallel
// branch-and-bound, whose speculative work is schedule-dependent. Each
// Tree() call gets a fresh incumbent; a returned tree is single-use.
func ksTree(items []ksItem, i int, cap, value int64, best *int64) invoke.Task {
	if value > *best {
		*best = value
	}
	prune := i == len(items) || cap == 0 || ksBound(items, i, cap, value) <= *best
	if prune {
		return invoke.Task{Name: "ks-leaf", Frame: frameMedium,
			Segs: []invoke.Seg{{Work: 16}}}
	}
	segs := []invoke.Seg{{Work: 32}}
	if items[i].weight <= cap {
		segs = append(segs, invoke.Seg{Fork: func() invoke.Task {
			return ksTree(items, i+1, cap-items[i].weight, value+items[i].value, best)
		}})
	}
	segs = append(segs, invoke.Seg{
		Call: func() invoke.Task { return ksTree(items, i+1, cap, value, best) },
		Join: true,
	})
	return invoke.Task{Name: "knapsack", Frame: frameMedium, Segs: segs}
}
