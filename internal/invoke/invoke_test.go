package invoke

import (
	"testing"
	"testing/quick"
)

// fibTree builds the parfib invocation tree from the paper's Listing 1:
// fork parfib(n-1), call parfib(n-2), join. Grain g makes n < g serial leaves.
func fibTree(n int, frame int) Task {
	if n < 2 {
		return Task{Frame: frame, Segs: []Seg{{Work: 1}}, Key: uint64(n) + 1}
	}
	return Task{
		Frame: frame,
		Key:   uint64(n) + 1,
		Segs: []Seg{
			{Work: 1, Fork: func() Task { return fibTree(n-1, frame) }},
			{Work: 0, Call: func() Task { return fibTree(n-2, frame) }},
			{Work: 1, Join: true},
		},
		Name: "parfib",
	}
}

func fibValue(n int) int64 {
	a, b := int64(0), int64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func TestLeafMetrics(t *testing.T) {
	m := Analyze(Leaf(7, 128))
	if m.Work != 7 || m.Span != 7 {
		t.Errorf("leaf work/span = %d/%d, want 7/7", m.Work, m.Span)
	}
	if m.MaxStackBytes != 128 || m.FibrilDepth != 0 || m.CallDepth != 1 {
		t.Errorf("leaf stack/D/depth = %d/%d/%d", m.MaxStackBytes, m.FibrilDepth, m.CallDepth)
	}
	if m.Tasks != 1 || m.Forks != 0 {
		t.Errorf("leaf tasks/forks = %d/%d", m.Tasks, m.Forks)
	}
}

func TestForkJoinSpan(t *testing.T) {
	// Parent: 10 work, fork child of 100 work, then 10 more work, join.
	// T1 = 120, T∞ = 10 + max(100, 10) = 110.
	task := Task{Frame: 64, Segs: []Seg{
		{Work: 10, Fork: func() Task { return Leaf(100, 64) }},
		{Work: 10, Join: true},
	}}
	m := Analyze(task)
	if m.Work != 120 {
		t.Errorf("T1 = %d, want 120", m.Work)
	}
	if m.Span != 110 {
		t.Errorf("T∞ = %d, want 110", m.Span)
	}
	if m.FibrilDepth != 1 {
		t.Errorf("D = %d, want 1", m.FibrilDepth)
	}
}

func TestCallLiesOnSpine(t *testing.T) {
	// A synchronous call's span extends the spine: fork(100) ∥ call(60)+work(10).
	// T∞ = max(100, 60+10) = 100; with call span 120 it becomes 130.
	mk := func(callWork int64) Metrics {
		return Analyze(Task{Frame: 0, Segs: []Seg{
			{Work: 0, Fork: func() Task { return Leaf(100, 0) }},
			{Work: 0, Call: func() Task { return Leaf(callWork, 0) }},
			{Work: 10, Join: true},
		}})
	}
	if m := mk(60); m.Span != 100 {
		t.Errorf("span = %d, want 100", m.Span)
	}
	if m := mk(120); m.Span != 130 {
		t.Errorf("span = %d, want 130", m.Span)
	}
}

func TestMultipleJoinPhases(t *testing.T) {
	// Two fork-join phases in one frame (like heat's timesteps). Segment
	// work precedes the segment's fork, so:
	// phase 1: fork(50) at spine 0, join → spine 50
	// phase 2: fork(30) at spine 50 ∥ 5 more spine work, join →
	//          max(50+5, 50+30) = 80.
	task := Task{Frame: 32, Segs: []Seg{
		{Work: 0, Fork: func() Task { return Leaf(50, 32) }, Join: true},
		{Work: 0, Fork: func() Task { return Leaf(30, 32) }},
		{Work: 5, Join: true},
	}}
	m := Analyze(task)
	if m.Work != 85 {
		t.Errorf("T1 = %d, want 85", m.Work)
	}
	if m.Span != 80 {
		t.Errorf("T∞ = %d, want 80", m.Span)
	}
}

func TestFibTreeCounts(t *testing.T) {
	// parfib(n) leaves return fib computed by counting unit work at leaves:
	// number of leaves of the fib recursion tree with base cases 0,1 is
	// fib(n+1); total tasks = 2*fib(n+1) - 1.
	m := Analyze(fibTree(10, 96))
	wantTasks := 2*fibValue(11) - 1
	if m.Tasks != wantTasks {
		t.Errorf("tasks = %d, want %d", m.Tasks, wantTasks)
	}
	// Every internal node forks exactly once.
	if m.Forks != (wantTasks-1)/2 {
		t.Errorf("forks = %d, want %d", m.Forks, (wantTasks-1)/2)
	}
	// D equals the longest chain of forking frames = n-1 (parfib(n)…parfib(2)).
	if m.FibrilDepth != 9 {
		t.Errorf("D = %d, want 9", m.FibrilDepth)
	}
	// Serial stack: the deepest path has n-1 frames of internal nodes plus a
	// leaf frame = n frames of 96 bytes... path parfib(10)→9→…→2→leaf(1 or 0):
	// depth = 10 frames.
	if m.MaxStackBytes != 10*96 {
		t.Errorf("S1 bytes = %d, want %d", m.MaxStackBytes, 10*96)
	}
}

func TestMemoizationMatchesUnmemoized(t *testing.T) {
	withKeys := fibTree(18, 64)
	noKeys := stripKeys(withKeys)
	a, b := Analyze(withKeys), Analyze(noKeys)
	if a != b {
		t.Errorf("memoized %+v != unmemoized %+v", a, b)
	}
}

func stripKeys(t Task) Task {
	t.Key = 0
	segs := make([]Seg, len(t.Segs))
	copy(segs, t.Segs)
	for i := range segs {
		if f := segs[i].Fork; f != nil {
			segs[i].Fork = func() Task { return stripKeys(f()) }
		}
		if c := segs[i].Call; c != nil {
			segs[i].Call = func() Task { return stripKeys(c()) }
		}
	}
	t.Segs = segs
	return t
}

func TestMemoizationScalesToPaperInput(t *testing.T) {
	// fib(42) has ~866M nodes; memoized analysis must be instant.
	m := Analyze(fibTree(42, 96))
	wantTasks := 2*fibValue(43) - 1
	if m.Tasks != wantTasks {
		t.Errorf("tasks = %d, want %d", m.Tasks, wantTasks)
	}
	if m.FibrilDepth != 41 {
		t.Errorf("D = %d, want 41 (paper Table 3 lists D=41 for fib)", m.FibrilDepth)
	}
}

// Property: for any random series-parallel tree, Span ≤ Work, Work equals
// the sum of all segment work, and FibrilDepth ≤ CallDepth.
func TestQuickSpanWorkInvariants(t *testing.T) {
	// Seed values encode work in the low byte and tree shape in the high byte.
	var build func(seed []uint16) (Task, int64)
	build = func(seed []uint16) (Task, int64) {
		if len(seed) == 0 {
			return Leaf(1, 16), 1
		}
		n := seed[0]
		rest := seed[1:]
		half := len(rest) / 2
		var segs []Seg
		total := int64(n % 8)
		segs = append(segs, Seg{Work: int64(n % 8)})
		var sub int64
		switch (n >> 8) % 3 {
		case 0: // fork both halves, join
			l, lw := build(rest[:half])
			r, rw := build(rest[half:])
			sub = lw + rw
			segs = append(segs,
				Seg{Fork: func() Task { return l }},
				Seg{Fork: func() Task { return r }, Join: true})
		case 1: // fork one, call one
			l, lw := build(rest[:half])
			r, rw := build(rest[half:])
			sub = lw + rw
			segs = append(segs,
				Seg{Fork: func() Task { return l }},
				Seg{Call: func() Task { return r }, Join: true})
		case 2: // call only
			l, lw := build(rest)
			sub = lw
			segs = append(segs, Seg{Call: func() Task { return l }})
		}
		return Task{Frame: 32, Segs: segs}, total + sub
	}
	prop := func(seed []uint16) bool {
		if len(seed) > 40 {
			seed = seed[:40]
		}
		task, wantWork := build(seed)
		m := Analyze(task)
		if m.Work != wantWork {
			return false
		}
		if m.Span > m.Work || m.Span < 0 {
			return false
		}
		if m.FibrilDepth > m.CallDepth {
			return false
		}
		return m.MaxStackBytes >= int64(task.Frame)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCallsAndLeavesMetrics(t *testing.T) {
	if m := Analyze(Leaf(1, 64)); m.Leaves != 1 || m.Calls != 0 {
		t.Errorf("leaf: leaves/calls = %d/%d, want 1/0", m.Leaves, m.Calls)
	}
	// parfib without memoization: fib(n) called instances follow the
	// recursion exactly — tasks = calls + forks + 1, and the leaves are
	// the n<2 base cases: leaves(n) = fib(n+1) for the unmemoized tree.
	tree := func(n int) Task {
		var gen func(n int) Task
		gen = func(n int) Task {
			if n < 2 {
				return Task{Frame: 64, Segs: []Seg{{Work: 1}}}
			}
			return Task{Frame: 64, Segs: []Seg{
				{Work: 1, Fork: func() Task { return gen(n - 1) }},
				{Work: 0, Call: func() Task { return gen(n - 2) }},
				{Work: 1, Join: true},
			}}
		}
		return gen(n)
	}
	m := Analyze(tree(10))
	if m.Tasks != m.Calls+m.Forks+1 {
		t.Errorf("tasks %d != calls %d + forks %d + 1", m.Tasks, m.Calls, m.Forks)
	}
	if want := fibValue(11); m.Leaves != want {
		t.Errorf("leaves = %d, want fib(11) = %d", m.Leaves, want)
	}
	// Memoization must not change the metrics.
	mm := Analyze(fibTree(10, 64))
	if mm.Leaves != m.Leaves || mm.Calls != m.Calls {
		t.Errorf("memoized leaves/calls = %d/%d, want %d/%d",
			mm.Leaves, mm.Calls, m.Leaves, m.Calls)
	}
}
