// Package bench implements the 12 benchmarks of the Fibril paper's
// evaluation (SPAA 2016, Table 1): cholesky, fft, fib, heat, integrate,
// knapsack, lu, matmul, nqueens, quicksort, rectmul, and strassen — the
// classic Cilk benchmark suite — plus an adversarial workload for the
// depth-restricted-stealing lower bound (§3, Sukha).
//
// Every benchmark provides three faces:
//
//   - Serial: a plain Go implementation, the Tserial of Figure 3;
//   - Parallel: the same algorithm on the Fibril core API (internal/core),
//     returning a checksum that must equal the serial one;
//   - Tree: an invocation-tree generator (internal/invoke) mirroring the
//     parallel version's fork/call/join structure with calibrated work
//     weights, which the discrete-event simulator executes at P = 1…72.
//
// Inputs are parameterized: Default sizes keep `go test` fast, Paper sizes
// are Table 1's. Workload data is generated from fixed seeds so runs are
// reproducible and parallel checksums are comparable across strategies.
package bench

import (
	"fmt"
	"sort"

	"fibril/internal/core"
	"fibril/internal/invoke"
)

// Arg parameterizes one benchmark run. The meaning of N and M is
// per-benchmark (documented on each Spec).
type Arg struct {
	N int
	M int
}

func (a Arg) String() string {
	if a.M != 0 {
		return fmt.Sprintf("%d/%d", a.N, a.M)
	}
	return fmt.Sprintf("%d", a.N)
}

// Spec describes one benchmark.
type Spec struct {
	// Name is the paper's benchmark name.
	Name string
	// Description matches Table 1.
	Description string
	// ArgDoc explains N (and M if used).
	ArgDoc string

	// Default is a CI-scale input; Paper is Table 1's input; Sim is the
	// input the discrete-event simulator sweeps for Figure 4 and Tables
	// 2–4 — large enough for meaningful parallelism at 72 workers, small
	// enough that trees stay in the low millions of nodes.
	Default Arg
	Paper   Arg
	Sim     Arg

	// Serial runs the plain Go implementation and returns a checksum.
	Serial func(Arg) uint64
	// Parallel runs the Fibril-API implementation on w and returns a
	// checksum equal to Serial's for the same Arg. The fine-grained
	// benchmarks implement this on the zero-allocation ForkArg path.
	Parallel func(w *core.W, a Arg) uint64
	// Tree generates the invocation tree for the simulator.
	Tree func(Arg) invoke.Task
}

// registry holds all benchmarks keyed by name.
var registry = map[string]*Spec{}

func register(s *Spec) *Spec {
	if _, dup := registry[s.Name]; dup {
		panic("bench: duplicate benchmark " + s.Name)
	}
	registry[s.Name] = s
	return s
}

// Get returns the named benchmark, or nil.
func Get(name string) *Spec { return registry[name] }

// Names returns all benchmark names in alphabetical order (the paper's
// table order).
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all benchmarks in table order.
func All() []*Spec {
	specs := make([]*Spec, 0, len(registry))
	for _, n := range Names() {
		specs = append(specs, registry[n])
	}
	return specs
}

// splitmix64 is the deterministic workload generator used everywhere so
// serial and parallel runs see identical data.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix folds a value into a running checksum (FNV-1a style over words).
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001B3
	return h
}

// f64sum folds a float64 into a checksum with a small tolerance: the value
// is rounded to 10 significant bits of fraction to absorb last-ulp
// differences (none are expected — both versions use identical operation
// order — but checksums should not be flakier than the math).
func f64bits(v float64) uint64 {
	const scale = 1 << 20
	return uint64(int64(v * scale))
}

// Standard simulated frame sizes (bytes) used by the parallel versions and
// tree generators, so S1/D measurements are consistent between the real
// runtime and the simulator. Values approximate the x86-64 frames of the
// corresponding Cilk functions.
const (
	frameSmall  = 96  // tiny leaf helpers
	frameMedium = 192 // typical recursive function
	frameLarge  = 320 // functions with several spilled locals
)
