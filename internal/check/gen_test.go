package check

import "testing"

// walk visits every node of a program exactly as reachable from the root.
func walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, s := range n.Segs {
		if s.Call != nil {
			walk(s.Call, fn)
		}
		if s.Fork != nil {
			walk(s.Fork, fn)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := Generate(seed, Params{})
		b := Generate(seed, Params{})
		if a.String() != b.String() {
			t.Fatalf("seed %d: %v != %v", seed, a, b)
		}
		// Structural equality, not just summary equality.
		var sa, sb []int
		walk(a.Root, func(n *Node) { sa = append(sa, n.ID, n.Frame, len(n.Segs)) })
		walk(b.Root, func(n *Node) { sb = append(sb, n.ID, n.Frame, len(n.Segs)) })
		if len(sa) != len(sb) {
			t.Fatalf("seed %d: shapes differ", seed)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("seed %d: shapes differ at %d", seed, i)
			}
		}
	}
}

func TestGenerateRespectsParams(t *testing.T) {
	params := DefaultParams()
	for seed := uint64(0); seed < 200; seed++ {
		p := Generate(seed, params)
		if p.Nodes > params.MaxNodes {
			t.Fatalf("seed %d: %d nodes > MaxNodes %d", seed, p.Nodes, params.MaxNodes)
		}
		seen := 0
		ids := make(map[int]bool)
		walk(p.Root, func(n *Node) {
			seen++
			if ids[n.ID] {
				t.Fatalf("seed %d: duplicate node ID %d", seed, n.ID)
			}
			ids[n.ID] = true
			if n.ID < 0 || n.ID >= p.Nodes {
				t.Fatalf("seed %d: node ID %d outside [0,%d)", seed, n.ID, p.Nodes)
			}
			if n.Frame < params.FrameMin || n.Frame > 2*4096 {
				t.Fatalf("seed %d: frame %d outside bounds", seed, n.Frame)
			}
			if n.Panic {
				t.Fatalf("seed %d: panic node with PanicPct=0", seed)
			}
			// A node that forks must end joined: its last fork-bearing or
			// later segment either sets Join or is followed by the implicit
			// terminal join in Body/Tree — structurally, no constraint to
			// check beyond frame declaration, which forks() derives.
		})
		if seen != p.Nodes {
			t.Fatalf("seed %d: walked %d nodes, program says %d", seed, seen, p.Nodes)
		}
		// The tree conversion must agree with the generator's edge counts.
		m := p.Metrics()
		if m.Tasks != int64(p.Nodes) {
			t.Fatalf("seed %d: Analyze sees %d tasks, generator made %d", seed, m.Tasks, p.Nodes)
		}
		if m.Forks != int64(p.Forks) {
			t.Fatalf("seed %d: Analyze sees %d forks, generator made %d", seed, m.Forks, p.Forks)
		}
		if m.Calls != int64(p.Calls) {
			t.Fatalf("seed %d: Analyze sees %d calls, generator made %d", seed, m.Calls, p.Calls)
		}
	}
}

func TestGenerateShapeDiversity(t *testing.T) {
	// Over a modest seed range the generator must produce both trivial and
	// rich programs: single-node leaves, deep nests, wide loops, calls and
	// forks. This guards against a regression that quietly collapses the
	// distribution (e.g. every program becoming a leaf).
	var leaves, deep, wide, withCalls int
	for seed := uint64(0); seed < 300; seed++ {
		p := Generate(seed, Params{})
		m := p.Metrics()
		if p.Nodes == 1 {
			leaves++
		}
		if m.FibrilDepth >= 3 {
			deep++
		}
		if p.Forks >= 10 {
			wide++
		}
		if p.Calls > 0 {
			withCalls++
		}
	}
	if leaves == 0 || deep == 0 || wide == 0 || withCalls == 0 {
		t.Fatalf("distribution collapsed: leaves=%d deep=%d wide=%d withCalls=%d",
			leaves, deep, wide, withCalls)
	}
}

func TestGeneratePanicMode(t *testing.T) {
	params := Params{PanicPct: 30}
	var panicky, rootAbandons, deepAbandons int
	for seed := uint64(0); seed < 100; seed++ {
		p := Generate(seed, params)
		if p.Panics > 0 {
			panicky++
		}
		if p.Nodes > p.Params.MaxNodes {
			t.Fatalf("seed %d: %d nodes > MaxNodes %d", seed, p.Nodes, p.Params.MaxNodes)
		}
		walk(p.Root, func(n *Node) {
			switch {
			case !n.Panic:
			case len(n.Segs) == 1 && n.Segs[0].Fork == nil && n.Segs[0].Call == nil:
				if n.ID == 0 {
					t.Fatalf("seed %d: a single-node program panics", seed)
				}
			default:
				// Not a leaf, so an abandoning node: forks only, three or
				// more, and no Join before the panic.
				if len(n.Segs) < minAbandoned {
					t.Fatalf("seed %d: abandoning node n%d forks %d children, want >= %d", seed, n.ID, len(n.Segs), minAbandoned)
				}
				for _, s := range n.Segs {
					if s.Fork == nil || s.Call != nil || s.Join || s.Lazy {
						t.Fatalf("seed %d: abandoning node n%d has a segment that is not a plain fork", seed, n.ID)
					}
				}
				if n.ID == 0 {
					rootAbandons++
				} else {
					deepAbandons++
				}
			}
			// Panic-orderliness invariant: calls precede forks within a
			// node, so a panic propagating out of a call cannot bypass a
			// join with outstanding forked children.
			sawFork := false
			for _, s := range n.Segs {
				if s.Fork != nil {
					sawFork = true
				}
				if s.Call != nil && sawFork {
					t.Fatalf("seed %d: node n%d has call after fork in panic mode", seed, n.ID)
				}
			}
		})
		// A program fails at the root exactly when a panic was injected,
		// and what a running node abandons is among the nodes still owed
		// an execution.
		ran := make([]uint32, p.Nodes)
		if got := p.Root.mark(ran); got != (p.Panics > 0) {
			t.Fatalf("seed %d: %d injected panics, root panics = %v", seed, p.Panics, got)
		}
		walk(p.Root, func(n *Node) {
			if !n.Panic || ran[n.ID] == 0 {
				return
			}
			for _, s := range n.Segs {
				if s.Fork != nil && ran[s.Fork.ID] != 1 {
					t.Fatalf("seed %d: n%d runs and abandons n%d, which Expected leaves out", seed, n.ID, s.Fork.ID)
				}
			}
		})
	}
	if panicky == 0 {
		t.Fatal("PanicPct=30 produced no panicking programs in 100 seeds")
	}
	if rootAbandons == 0 || deepAbandons == 0 {
		t.Fatalf("%d abandoning roots and %d deeper abandoning nodes in 100 seeds, want both", rootAbandons, deepAbandons)
	}
}

func TestFrameBytesWithinSimLimits(t *testing.T) {
	// Worst case: every node's frame on one stack (the help-first inline
	// drain can in principle nest any execution chain). The harness stack
	// must absorb it.
	params := DefaultParams()
	worst := params.MaxNodes * 2 * 4096
	if worst > harnessStackPages*4096 {
		t.Fatalf("worst-case frame chain %dB exceeds harness stack %dB",
			worst, harnessStackPages*4096)
	}
}
