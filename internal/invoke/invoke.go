// Package invoke models invocation trees of fork-join computations and
// computes the quantities the Fibril paper's theory is stated in (SPAA
// 2016, §1 and §4.4): work T1, span T∞, average parallelism T1/T∞, the
// serial stack depth S1, and the Fibril depth D.
//
// A computation is represented as a lazily expanded tree of Tasks. Each
// Task is one function instance with an activation frame of Frame bytes and
// a body made of Segments executed in order. A segment performs Work units
// of serial computation and may then fork a child (asynchronous, runs in
// parallel with the rest of the body), call a child (synchronous, inline,
// like a plain C call — this is what serial-parallel reciprocity is about),
// and/or join (wait for all children forked so far). A join of all
// outstanding children is implicit at the end of the body, per the fork-join
// model of §2.
//
// Children are produced by generator closures so that trees with millions
// of nodes need never be materialized. Tasks that are structurally
// identical may carry the same nonzero Key, letting Analyze memoize — the
// full fib(42) tree (~866M nodes) is analyzed in 42 steps.
package invoke

import "fmt"

// Gen lazily produces a child task.
type Gen func() Task

// Seg is one segment of a task body: serial work, then an optional
// synchronous call, then an optional fork, then an optional join barrier.
type Seg struct {
	Work int64 // serial computation units before the events below
	Call Gen   // synchronous inline call (nil = none)
	Fork Gen   // asynchronous fork (nil = none)
	Join bool  // join all outstanding forked children after this segment
}

// Task is one function instance in the invocation tree.
type Task struct {
	Frame int    // activation-frame size in bytes
	Segs  []Seg  // body
	Key   uint64 // nonzero: memoization key; equal keys ⇒ identical subtree
	Name  string // optional label for diagnostics
}

// IsFibril reports whether the task is a Fibril function — one that forks
// (and therefore declares a fibril_t). Only Fibril frames count toward the
// paper's Fibril depth D.
func (t Task) IsFibril() bool {
	for _, s := range t.Segs {
		if s.Fork != nil {
			return true
		}
	}
	return false
}

// Metrics are the analysis results for a task subtree.
type Metrics struct {
	Work          int64 // T1: total computation units
	Span          int64 // T∞: critical-path length
	MaxStackBytes int64 // deepest serial-execution stack, in bytes (→ S1)
	FibrilDepth   int   // D: max Fibril frames on any root-to-leaf path
	CallDepth     int   // max frames of any kind on a root-to-leaf path
	Tasks         int64 // number of function instances
	Forks         int64 // number of fork edges
	Calls         int64 // number of synchronous call edges
	Leaves        int64 // function instances with no call or fork edges
}

// Parallelism returns T1/T∞.
func (m Metrics) Parallelism() float64 {
	if m.Span == 0 {
		return 0
	}
	return float64(m.Work) / float64(m.Span)
}

// String summarizes the metrics.
func (m Metrics) String() string {
	return fmt.Sprintf("T1=%d T∞=%d T1/T∞=%.1f S1=%dB D=%d tasks=%d forks=%d",
		m.Work, m.Span, m.Parallelism(), m.MaxStackBytes, m.FibrilDepth, m.Tasks, m.Forks)
}

// Analyze computes Metrics for the tree rooted at t. Subtrees sharing a
// nonzero Key are analyzed once.
func Analyze(t Task) Metrics {
	return analyze(t, map[uint64]Metrics{})
}

func analyze(t Task, memo map[uint64]Metrics) Metrics {
	if t.Key != 0 {
		if m, ok := memo[t.Key]; ok {
			return m
		}
	}
	m := Metrics{Tasks: 1}
	var (
		spine    int64 // span along the serial spine since the last join
		openMax  int64 // max over open forked children of forkPoint + childSpan
		maxChild int64 // deepest child stack (serial execution runs all inline)
		depthF   int   // max child Fibril depth
		depthC   int   // max child call depth
	)
	for _, s := range t.Segs {
		if s.Work < 0 {
			panic("invoke: negative segment work")
		}
		m.Work += s.Work
		spine += s.Work
		if s.Call != nil {
			cm := analyze(s.Call(), memo)
			m.Work += cm.Work
			spine += cm.Span // inline: the call's span lies on the spine
			m.Tasks += cm.Tasks
			m.Forks += cm.Forks
			m.Calls += cm.Calls + 1
			m.Leaves += cm.Leaves
			maxChild = max64(maxChild, cm.MaxStackBytes)
			depthF = maxInt(depthF, cm.FibrilDepth)
			depthC = maxInt(depthC, cm.CallDepth)
		}
		if s.Fork != nil {
			cm := analyze(s.Fork(), memo)
			m.Work += cm.Work
			openMax = max64(openMax, spine+cm.Span)
			m.Tasks += cm.Tasks
			m.Forks += cm.Forks + 1
			m.Calls += cm.Calls
			m.Leaves += cm.Leaves
			maxChild = max64(maxChild, cm.MaxStackBytes)
			depthF = maxInt(depthF, cm.FibrilDepth)
			depthC = maxInt(depthC, cm.CallDepth)
		}
		if s.Join {
			spine = max64(spine, openMax)
			openMax = 0
		}
	}
	spine = max64(spine, openMax) // implicit terminal join
	m.Span = spine
	m.MaxStackBytes = int64(t.Frame) + maxChild
	self := 0
	if t.IsFibril() {
		self = 1
	}
	m.FibrilDepth = self + depthF
	m.CallDepth = 1 + depthC
	if m.Tasks == 1 { // no call or fork edges anywhere below: a leaf
		m.Leaves = 1
	}
	if t.Key != 0 {
		memo[t.Key] = m
	}
	return m
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Leaf builds a task with only serial work — a leaf of the invocation tree.
func Leaf(work int64, frame int) Task {
	return Task{Frame: frame, Segs: []Seg{{Work: work}}}
}
