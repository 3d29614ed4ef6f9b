package check

import (
	"errors"
	"slices"

	"fibril/internal/core"
)

// Options selects the executor matrix Differential runs a program through.
// The zero value takes the defaults documented on each field.
type Options struct {
	// Workers are the real-runtime worker counts. Default {1, 2, 4}.
	Workers []int
	// Strategies are the scheduling strategies, applied to the simulators
	// and, for those in core.Strategies(), to the real runtime. Default
	// {Fibril}.
	Strategies []core.Strategy
	// Mem are the RSS ceilings each real-runtime leg is run with. Default
	// {{}} — no ceiling. The simulators do not model the ceiling, so the
	// sim legs ignore this.
	Mem []MemParams
	// SimWorkers are the simulator worker counts, run with both the
	// help-first and the work-first engine. Default {1, 3}; nil-able via
	// NoSim.
	SimWorkers []int
	// NoSim disables the simulator legs (used for panic-injected programs,
	// which the simulator does not model, and by fuzz targets that only
	// exercise the real runtime).
	NoSim bool
}

func (o Options) withDefaults() Options {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4}
	}
	if len(o.Strategies) == 0 {
		o.Strategies = []core.Strategy{core.StrategyFibril}
	}
	if len(o.Mem) == 0 {
		o.Mem = []MemParams{{}}
	}
	if len(o.SimWorkers) == 0 {
		o.SimWorkers = []int{1, 3}
	}
	return o
}

// Legs returns how many executions Differential puts one program through:
// per strategy, the real-runtime matrix if the runtime has the strategy,
// plus, unless NoSim, both simulator engines per simulator worker count (a
// program with injected panics skips those).
func (o Options) Legs() int {
	o = o.withDefaults()
	legs := 0
	for _, strat := range o.Strategies {
		if onRuntime(strat) {
			legs += len(o.Workers) * len(o.Mem)
		}
		if !o.NoSim {
			legs += 2 * len(o.SimWorkers)
		}
	}
	return legs
}

// onRuntime reports whether the real runtime has strat; the others are the
// simulator's alone.
func onRuntime(strat core.Strategy) bool { return slices.Contains(core.Strategies(), strat) }

// Differential executes the program across the full executor matrix —
// real runtime × strategies × worker counts, plus both simulator
// engines — and checks every oracle against every execution. A
// simulator-only strategy gets the simulator legs alone.
// Exactly-once execution on each leg implies all legs computed the same
// multiset of leaf executions, which is the differential guarantee. The
// returned error joins every violation, each tagged with the executor
// label and the replayable seed; nil means fully conformant.
func Differential(p *Program, opts Options) error {
	opts = opts.withDefaults()
	m := p.Metrics()
	var errs []error

	for _, strat := range opts.Strategies {
		realWorkers := opts.Workers
		if !onRuntime(strat) {
			realWorkers = nil
		}
		for _, workers := range realWorkers {
			for _, mem := range opts.Mem {
				e := RunReal(p, workers, strat, mem)
				if p.Panics > 0 {
					errs = append(errs, CheckRealPanic(p, e))
				} else {
					errs = append(errs, CheckReal(p, m, e))
				}
			}
		}
		if opts.NoSim || p.Panics > 0 {
			continue
		}
		for _, workers := range opts.SimWorkers {
			for _, workFirst := range []bool{false, true} {
				e, err := RunSim(p, workers, workFirst, strat)
				if err != nil {
					errs = append(errs, err)
					continue
				}
				errs = append(errs, CheckSim(p, m, e))
			}
		}
	}
	return errors.Join(errs...)
}
