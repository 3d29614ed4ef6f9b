package check

import "testing"

// FuzzScheduler feeds fuzz-chosen (seed, shape-parameter) pairs through
// the full differential harness: the fuzzer explores the generator's
// parameter space while the oracles judge every execution. Run with
//
//	go test -fuzz=FuzzScheduler -fuzztime=30s ./internal/check/
//
// A crasher's corpus file pins (seed, params); the failure message also
// names the seed for replay via `go run ./cmd/fibril-check -seed N`.
func FuzzScheduler(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(0))
	f.Add(uint64(7), uint8(3), uint8(2), uint8(50), uint8(10), false, uint8(0), uint8(0))
	f.Add(uint64(42), uint8(9), uint8(7), uint8(100), uint8(0), false, uint8(0), uint8(30))
	f.Add(uint64(0xdeadbeef), uint8(5), uint8(1), uint8(0), uint8(40), true, uint8(0), uint8(0))
	f.Add(uint64(1<<63), uint8(11), uint8(4), uint8(20), uint8(1), false, uint8(2), uint8(0))
	f.Add(uint64(99), uint8(7), uint8(3), uint8(30), uint8(8), false, uint8(1), uint8(60))
	f.Add(uint64(31337), uint8(6), uint8(5), uint8(40), uint8(4), false, uint8(0), uint8(100))
	f.Fuzz(func(t *testing.T, seed uint64, depth, fanout, loopPct, maxWork uint8,
		panics bool, ceiling, lazyPct uint8) {
		params := Params{
			// Small node budget keeps one iteration well under a
			// millisecond so the fuzzer gets real throughput.
			MaxNodes:  60,
			MaxDepth:  int(depth%12) + 1,
			MaxFanout: int(fanout%8) + 1,
			LoopPct:   int(loopPct) % 101,
			MaxWork:   int64(maxWork%64) + 1,
			// Ignored (forced to 0) when panics are injected: lazy edges
			// that degrade to calls would reorder panic propagation.
			LazyPct: int(lazyPct) % 101,
		}
		if panics {
			params.PanicPct = 25
		}
		mem := MemParams{
			// A nonzero ceiling this low (up to ~2k pages against 4 MB
			// stacks) keeps the pressure valve firing constantly.
			MaxResidentPages: int64(ceiling%8) * 256,
		}
		p := Generate(seed, params)
		opts := Options{
			Workers:    []int{2},
			Mem:        []MemParams{mem},
			SimWorkers: []int{2},
		}
		if err := Differential(p, opts); err != nil {
			t.Fatal(err)
		}
	})
}
