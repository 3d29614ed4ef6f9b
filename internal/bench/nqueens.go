package bench

import (
	"unsafe"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// NQueens counts the placements of N non-attacking queens (paper: N = 14)
// by row-by-row bitmask backtracking, forking one child per legal column —
// the classic irregular-parallelism benchmark: subtree sizes vary wildly,
// exercising the load balancer.
// N is the board size.
var NQueens = register(&Spec{
	Name:        "nqueens",
	Description: "Count ways to place N queens",
	ArgDoc:      "N = board size",
	Default:     Arg{N: 10},
	Paper:       Arg{N: 14},
	Sim:         Arg{N: 12},
	Serial:      func(a Arg) uint64 { return uint64(nqSerial(a.N, 0, 0, 0)) },
	Parallel: func(w *core.W, a Arg) uint64 {
		return uint64(nqArg(w, a.N, 0, 0, 0))
	},
	Tree: func(a Arg) invoke.Task { return nqTree(a.N, 0, 0, 0) },
})

// nqSerial counts completions given column/diagonal occupancy masks.
func nqSerial(n int, cols, diag1, diag2 uint32) int64 {
	row := popcount(cols)
	if int(row) == n {
		return 1
	}
	full := uint32(1<<n) - 1
	avail := full &^ (cols | diag1 | diag2)
	var count int64
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		count += nqSerial(n, cols|bit, (diag1|bit)<<1&full, (diag2|bit)>>1)
	}
	return count
}

func popcount(x uint32) uint32 {
	var c uint32
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

// nqCtx is one child subtree's argument record (pointer-free).
type nqCtx struct {
	n                  int
	cols, diag1, diag2 uint32
	res                int64
}

// nqPerBlock argument records pack into one arena block's payload.
const nqPerBlock = 4

const _ = uint(core.ScratchBytes - nqPerBlock*unsafe.Sizeof(nqCtx{}))

// nqBlockMax blocks cover the widest possible row: the column masks are
// uint32, so a board never has more than 32 candidate columns.
const nqBlockMax = 32 / nqPerBlock

func nqCtxAt(blocks *[nqBlockMax]*core.Scratch, k int) *nqCtx {
	return &(*[nqPerBlock]nqCtx)(blocks[k/nqPerBlock].Ptr())[k%nqPerBlock]
}

func nqArgTask(w *core.W, p unsafe.Pointer) {
	c := (*nqCtx)(p)
	c.res = nqArg(w, c.n, c.cols, c.diag1, c.diag2)
}

// nqArg forks one child per candidate column on the zero-allocation
// ForkArg path. A row's fan-out exceeds one block's payload, so argument
// records chain across up to nqBlockMax arena blocks — the first also
// carries the join frame — all released once the join quiesces them.
// Results are summed in fork order.
func nqArg(w *core.W, n int, cols, diag1, diag2 uint32) int64 {
	row := popcount(cols)
	if int(row) == n {
		return 1
	}
	full := uint32(1<<n) - 1
	avail := full &^ (cols | diag1 | diag2)
	if avail == 0 {
		return 0
	}
	// The last few rows run serially: forking single-row subtrees would be
	// all overhead, and the Cilk version bottoms out the same way.
	if int(row) >= n-3 {
		return nqSerial(n, cols, diag1, diag2)
	}
	var blocks [nqBlockMax]*core.Scratch
	blocks[0] = w.AcquireScratch()
	nb := 1
	fr := blocks[0].Frame()
	w.Init(fr)
	k := 0
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		if k/nqPerBlock >= nb {
			blocks[nb] = w.AcquireScratch()
			nb++
		}
		c := nqCtxAt(&blocks, k)
		*c = nqCtx{n: n, cols: cols | bit,
			diag1: (diag1 | bit) << 1 & full, diag2: (diag2 | bit) >> 1}
		w.ForkArgSized(fr, frameLarge, nqArgTask, unsafe.Pointer(c))
		k++
	}
	w.Join(fr)
	var total int64
	for i := 0; i < k; i++ {
		total += nqCtxAt(&blocks, i).res
	}
	for i := nb - 1; i >= 0; i-- {
		w.ReleaseScratch(blocks[i])
	}
	return total
}

// nqTree mirrors nqArg: all children forked, one join.
func nqTree(n int, cols, diag1, diag2 uint32) invoke.Task {
	row := popcount(cols)
	full := uint32(1<<n) - 1
	avail := full &^ (cols | diag1 | diag2)
	if int(row) == n || avail == 0 || int(row) >= n-3 {
		// Serial tail: weight by the actual number of nodes it explores.
		work := 25 * nqSerialNodes(n, cols, diag1, diag2)
		return invoke.Task{Name: "nq-leaf", Frame: frameLarge,
			Segs: []invoke.Seg{{Work: work}}}
	}
	var segs []invoke.Seg
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		c, d1, d2 := cols|bit, (diag1|bit)<<1&full, (diag2|bit)>>1
		segs = append(segs, invoke.Seg{Work: 12, Fork: func() invoke.Task {
			return nqTree(n, c, d1, d2)
		}})
	}
	segs = append(segs, invoke.Seg{Work: 12, Join: true})
	return invoke.Task{Name: "nqueens", Frame: frameLarge, Segs: segs}
}

// nqSerialNodes counts backtracking nodes, the serial tail's work proxy.
func nqSerialNodes(n int, cols, diag1, diag2 uint32) int64 {
	if int(popcount(cols)) == n {
		return 1
	}
	full := uint32(1<<n) - 1
	avail := full &^ (cols | diag1 | diag2)
	nodes := int64(1)
	for avail != 0 {
		bit := avail & (-avail)
		avail &^= bit
		nodes += nqSerialNodes(n, cols|bit, (diag1|bit)<<1&full, (diag2|bit)>>1)
	}
	return nodes
}
