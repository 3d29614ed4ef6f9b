// Package check is the scheduler conformance harness: a seeded random
// fork-join program generator, a set of invariant oracles derived from the
// paper's theory (busy leaves, exactly-once execution, counter
// conservation, space bounds), and differential runners that execute each
// generated program on the real runtime (internal/core, varying worker
// counts) and on both simulator engines (internal/sim),
// asserting that every executor computes the same execution multiset with
// oracle-clean counters.
//
// The design follows the argument of Cilkmem (Kaler et al.) — fork-join
// memory high-water marks are worth checking mechanically, not just on
// curated benchmarks — and of the fence-free work-stealing literature
// (Castañeda & Piña): steal-protocol bugs are interleaving-sensitive and
// survive ad-hoc testing, so the defense is a generator plus oracles run
// under the race detector. Everything is reproducible: a (seed, Params)
// pair fully determines the program, and every violation reports it.
package check

import (
	"fmt"

	"fibril/internal/invoke"
)

// Params bound the shapes the program generator may produce. The zero
// value takes the documented defaults (DefaultParams).
type Params struct {
	// MaxNodes caps the total number of function instances. Default 150.
	MaxNodes int
	// MaxDepth caps the nesting depth of the invocation tree. Default 7.
	MaxDepth int
	// MaxFanout caps the fork edges per node (parallel-loop nodes may use
	// up to 3×MaxFanout). Default 4.
	MaxFanout int
	// MaxCalls caps the synchronous call edges per node. Default 2.
	MaxCalls int
	// MaxWork caps the serial work units of one segment. Default 48.
	MaxWork int64
	// FrameMin/FrameMax bound the simulated activation-frame bytes of a
	// node. Defaults 48/1024, with an occasional page-crossing large frame
	// (up to 2 pages) to exercise demand paging and unmap.
	FrameMin, FrameMax int
	// LoopPct is the percentage of interior nodes generated as parallel
	// loops: a wide run of forks with a single trailing join, the shape
	// loops.For lowers to. Default 20.
	LoopPct int
	// PanicPct is the percentage of leaf nodes that panic after their
	// work; a third as many interior nodes, the root included, become
	// abandoning nodes: they fork three or more children and panic before
	// the Join, leaving the children to whoever ran the node. Calls always
	// precede forks in panic-mode programs, so a panic never leaves a call
	// past forked children and which nodes run is a property of the
	// program (Expected). The simulator does not model panics, so programs
	// with PanicPct > 0 are for the real runtime only. Default 0.
	PanicPct int
	// LazyPct is the percentage of fork edges generated as LAZY edges:
	// the executor decides fork-vs-call at run time with W.ShouldSplit —
	// the shape loops.For's steal-driven lazy splitter lowers to. The
	// exactly-once and quiescence oracles hold regardless of how the
	// decisions fall; the Forks/Calls equalities relax to a conservation
	// law. Lazy edges are suppressed in panic-mode programs (a lazy edge
	// degrading to a call would let a panic bypass the calls-before-forks
	// ordering above). Default 0, so existing seeds replay bit-identically.
	LazyPct int
}

// DefaultParams returns the generator defaults used by the conformance
// suite and fibril-check.
func DefaultParams() Params {
	return Params{}.withDefaults()
}

// WithDefaults returns the params with zero fields replaced by defaults —
// the exact configuration Generate will run. Exposed for fibril-check's
// shrinker, which needs concrete values to reduce from.
func (p Params) WithDefaults() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.MaxNodes <= 0 {
		p.MaxNodes = 150
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 7
	}
	if p.MaxFanout <= 0 {
		p.MaxFanout = 4
	}
	if p.MaxCalls < 0 {
		p.MaxCalls = 0
	} else if p.MaxCalls == 0 {
		p.MaxCalls = 2
	}
	if p.MaxWork <= 0 {
		p.MaxWork = 48
	}
	if p.FrameMin <= 0 {
		p.FrameMin = 48
	}
	if p.FrameMax < p.FrameMin {
		p.FrameMax = 1024
	}
	if p.LoopPct < 0 || p.LoopPct > 100 {
		p.LoopPct = 20
	}
	if p.PanicPct < 0 || p.PanicPct > 100 {
		p.PanicPct = 0
	}
	if p.LazyPct < 0 || p.LazyPct > 100 || p.PanicPct > 0 {
		p.LazyPct = 0
	}
	return p
}

func (p Params) String() string {
	return fmt.Sprintf("nodes≤%d depth≤%d fanout≤%d calls≤%d work≤%d frame=[%d,%d] loop%%=%d panic%%=%d lazy%%=%d",
		p.MaxNodes, p.MaxDepth, p.MaxFanout, p.MaxCalls, p.MaxWork,
		p.FrameMin, p.FrameMax, p.LoopPct, p.PanicPct, p.LazyPct)
}

// Seg is one segment of a generated node's body, mirroring invoke.Seg's
// within-segment order: serial work, then a synchronous call, then a fork,
// then an optional join of all children forked so far. A fork edge with
// Lazy set leaves the fork-vs-call decision to the executor at run time
// (W.ShouldSplit on the real runtime; the simulator and the serial
// elision always fork it, the canonical reading of the DAG).
type Seg struct {
	Work int64
	Call *Node
	Fork *Node
	Lazy bool
	Join bool
}

// Node is one function instance of a generated program. IDs are dense
// (0..Nodes-1, root = 0), which lets executors record executions in a flat
// counter array.
type Node struct {
	ID    int
	Frame int
	Segs  []Seg
	// Panic makes the body panic: a leaf after its work, an interior node
	// (genAbandon) past its forks and before their Join.
	Panic bool
}

// forks reports whether the node forks (and therefore declares a frame).
func (n *Node) forks() bool {
	for _, s := range n.Segs {
		if s.Fork != nil {
			return true
		}
	}
	return false
}

// Program is a generated fork-join program, fully determined by (Seed,
// Params).
type Program struct {
	Seed   uint64
	Params Params
	Root   *Node

	Nodes     int // total function instances
	Forks     int // unconditional fork edges
	Calls     int // call edges
	LazyEdges int // fork edges whose fork-vs-call decision is taken at run time
	Panics    int // panic-injected nodes: leaves and abandoning interior nodes
}

func (p *Program) String() string {
	return fmt.Sprintf("program(seed=%#x nodes=%d forks=%d calls=%d lazy=%d panics=%d)",
		p.Seed, p.Nodes, p.Forks, p.Calls, p.LazyEdges, p.Panics)
}

// rng is splitmix64 — tiny, seedable, and good enough for shape decisions.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeIn returns a value in [lo, hi].
func (r *rng) rangeIn(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.intn(hi-lo+1)
}

// pct rolls a percentage.
func (r *rng) pct(p int) bool { return p > 0 && r.intn(100) < p }

// Generate builds the program determined by (seed, params). The same pair
// always yields the same program, so any violation found on a generated
// program is replayable from its seed alone.
func Generate(seed uint64, params Params) *Program {
	params = params.withDefaults()
	p := &Program{Seed: seed, Params: params}
	r := rng(seed)
	budget := params.MaxNodes - 1 // root consumes one node
	p.Root = p.gen(&r, 1, &budget)
	return p
}

// frameBytes draws a node's simulated frame size: usually small, and
// occasionally (1 in 8) up to two pages so frames cross page boundaries
// and suspension-time unmap has something to return.
func (p *Program) frameBytes(r *rng) int {
	if r.pct(12) {
		return r.rangeIn(p.Params.FrameMax, 2*4096)
	}
	return r.rangeIn(p.Params.FrameMin, p.Params.FrameMax)
}

// newNode allocates the next node ID.
func (p *Program) newNode(r *rng) *Node {
	n := &Node{ID: p.Nodes, Frame: p.frameBytes(r)}
	p.Nodes++
	return n
}

// gen creates a subtree at the given depth, spending from *budget (the
// count of additional nodes the subtree may allocate beyond its root).
func (p *Program) gen(r *rng, depth int, budget *int) *Node {
	n := p.newNode(r)
	// Leaf when out of depth or budget, or by taper: deeper nodes are
	// increasingly likely to be leaves.
	taper := 100 * depth / (p.Params.MaxDepth + 1)
	if depth >= p.Params.MaxDepth || *budget <= 0 || r.pct(taper) {
		n.Segs = []Seg{{Work: p.work(r)}}
		if p.Params.PanicPct > 0 && depth > 1 && r.pct(p.Params.PanicPct) {
			n.Panic = true
			p.Panics++
		}
		return n
	}
	if *budget >= minAbandoned && r.pct(p.Params.PanicPct/3) {
		p.genAbandon(r, n, depth, budget)
		return n
	}
	if r.pct(p.Params.LoopPct) {
		p.genLoop(r, n, depth, budget)
	} else {
		p.genMixed(r, n, depth, budget)
	}
	if len(n.Segs) == 0 { // children denied by budget: degrade to a leaf
		n.Segs = []Seg{{Work: p.work(r)}}
	}
	return n
}

// work draws one segment's serial work, occasionally zero (pure scheduling
// nodes are the adversarial case for steal protocols).
func (p *Program) work(r *rng) int64 {
	if r.pct(25) {
		return 0
	}
	return int64(r.intn(int(p.Params.MaxWork))) + 1
}

// genLoop emits a parallel-loop body: a wide run of forks and a single
// trailing join — the shape loops.For lowers to, and the widest stress on
// the deque (many entries exposed to thieves at once).
func (p *Program) genLoop(r *rng, n *Node, depth int, budget *int) {
	width := r.rangeIn(2, 3*p.Params.MaxFanout)
	for i := 0; i < width && *budget > 0; i++ {
		*budget--
		child := p.gen(r, depth+1, budget)
		seg := Seg{Work: p.work(r) / 4, Fork: child}
		if r.pct(p.Params.LazyPct) {
			seg.Lazy = true
			p.LazyEdges++
		} else {
			p.Forks++
		}
		n.Segs = append(n.Segs, seg)
	}
	n.Segs = append(n.Segs, Seg{Work: p.work(r), Join: true})
}

// minAbandoned is the least number of children an abandoning node forks:
// with three, one is published by the fork that found the public part dry
// and two can sit in the owner-private part of the deque.
const minAbandoned = 3

// genAbandon emits a body that forks its children and panics before joining
// them. The children are arbitrary subtrees, paid for up front so that all
// of them exist however greedy the first is.
func (p *Program) genAbandon(r *rng, n *Node, depth int, budget *int) {
	k := min(r.rangeIn(minAbandoned, p.Params.MaxFanout), *budget)
	*budget -= k
	for i := 0; i < k; i++ {
		n.Segs = append(n.Segs, Seg{Work: p.work(r) / 4, Fork: p.gen(r, depth+1, budget)})
		p.Forks++
	}
	n.Panic = true
	p.Panics++
}

// genMixed emits a general body: a few calls and forks with optional
// mid-body joins. In panic mode all calls precede all forks, so a panic
// propagating synchronously out of a call can never bypass a join with
// outstanding children (see Params.PanicPct).
func (p *Program) genMixed(r *rng, n *Node, depth int, budget *int) {
	nCalls := r.intn(p.Params.MaxCalls + 1)
	nForks := r.rangeIn(1, p.Params.MaxFanout)
	type edge struct{ fork bool }
	var edges []edge
	for i := 0; i < nCalls; i++ {
		edges = append(edges, edge{fork: false})
	}
	for i := 0; i < nForks; i++ {
		edges = append(edges, edge{fork: true})
	}
	if p.Params.PanicPct == 0 {
		// Shuffle so calls and forks interleave (call-after-fork and
		// call-after-join shapes are the serial-parallel reciprocity
		// surface the paper's §4.1 is about).
		for i := len(edges) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
	}
	forked := false
	for _, e := range edges {
		if *budget <= 0 {
			break
		}
		*budget--
		child := p.gen(r, depth+1, budget)
		seg := Seg{Work: p.work(r)}
		if e.fork {
			seg.Fork = child
			if r.pct(p.Params.LazyPct) {
				seg.Lazy = true
				p.LazyEdges++
			} else {
				p.Forks++
			}
			forked = true
		} else {
			seg.Call = child
			p.Calls++
		}
		// Occasionally join mid-body, opening a second fork phase.
		if forked && r.pct(20) {
			seg.Join = true
		}
		n.Segs = append(n.Segs, seg)
	}
	n.Segs = append(n.Segs, Seg{Work: p.work(r)})
}

// Tree converts the program to an invocation tree for the simulator and
// for invoke.Analyze. Node IDs ride in Task.Key (offset by one — zero
// disables memoization) so sim executions can be mapped back to nodes;
// keys are unique per node, so memoization degenerates to caching and
// Analyze stays exact.
func (p *Program) Tree() invoke.Task {
	return p.taskOf(p.Root)
}

func (p *Program) taskOf(n *Node) invoke.Task {
	t := invoke.Task{
		Frame: n.Frame,
		Key:   uint64(n.ID) + 1,
		Name:  fmt.Sprintf("n%d", n.ID),
	}
	for _, s := range n.Segs {
		seg := invoke.Seg{Work: s.Work, Join: s.Join}
		if c := s.Call; c != nil {
			seg.Call = func() invoke.Task { return p.taskOf(c) }
		}
		if c := s.Fork; c != nil {
			seg.Fork = func() invoke.Task { return p.taskOf(c) }
		}
		t.Segs = append(t.Segs, seg)
	}
	return t
}

// Expected returns how often a run executes each node: once — except, in a
// panic-injected program, the nodes behind a call or fork site that an
// unwinding body never reached, which do not run at all. Which those are does
// not depend on the schedule: a body unwinds at a call that panicked, at a
// Join one of whose children panicked — every child forked before it has run
// to its end by then — or at its own injected panic, and a child forked
// before the unwind runs whether or not anybody is left to join it.
func (p *Program) Expected() []uint32 {
	ran := make([]uint32, p.Nodes)
	p.Root.mark(ran)
	return ran
}

// mark records the nodes a run of n executes and reports whether n's body
// panics.
func (n *Node) mark(ran []uint32) (panics bool) {
	ran[n.ID] = 1
	forked, childPanicked := false, false
	for _, s := range n.Segs {
		if s.Call != nil && s.Call.mark(ran) {
			return true
		}
		if s.Fork != nil {
			forked = true
			if s.Fork.mark(ran) {
				childPanicked = true
			}
		}
		if s.Join && forked {
			if childPanicked {
				return true
			}
			forked = false
		}
	}
	// An injected panic comes before the terminal Join, which re-raises a
	// child's.
	return n.Panic || childPanicked
}

// Metrics analyzes the program's invocation tree: T1, T∞, S1, D, and the
// structural counts the oracles check against.
func (p *Program) Metrics() invoke.Metrics {
	return invoke.Analyze(p.Tree())
}
