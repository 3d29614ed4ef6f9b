package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// The replay line must be sufficient: parsing it yields the generator
// parameters and the executor matrix of the run it was printed for, with
// the shrunk node budget in place of the original.
func TestReplayLineReproducesFailingRun(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-n", "50", "-q"},
		{"-strategy", "tbb", "-workers", "2,8", "-panics", "-ceiling", "64"},
		{"-strategy", " fibril-nounmap ", "-workers", "1, 3", "-nosim", "-nodes", "40", "-duration", "1s"},
	} {
		failing, err := parseFlags(args, io.Discard)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		const seed, nodes = 0x2a, 18
		line := failing.replayLine(seed, nodes)
		rest, ok := strings.CutPrefix(line, "go run ./cmd/fibril-check ")
		if !ok {
			t.Fatalf("%v: replay line %q does not start with the command", args, line)
		}
		replay, err := parseFlags(strings.Fields(rest), io.Discard)
		if err != nil {
			t.Fatalf("%v: replay line %q does not parse: %v", args, line, err)
		}
		if !replay.one || replay.seed != seed {
			t.Errorf("%v: %q replays one=%v seed=%#x, want the single seed %#x", args, line, replay.one, replay.seed, seed)
		}
		wantParams := failing.params()
		wantParams.MaxNodes = nodes
		if got := replay.params(); got != wantParams {
			t.Errorf("%v: %q generates with %+v, the failing run used %+v", args, line, got, wantParams)
		}
		wantOpts, err := failing.options()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got, err := replay.options(); err != nil || !reflect.DeepEqual(got, wantOpts) {
			t.Errorf("%v: %q runs %+v (err %v), the failing run ran %+v", args, line, got, err, wantOpts)
		}
	}
}

// -strategy takes the names the runtime's strategies print, and nothing
// else: a simulator-only strategy is refused with the valid names listed.
func TestStrategyFlagTakesRuntimeNames(t *testing.T) {
	for _, name := range []string{"fibril", "fibril-nounmap", "cilkplus", "tbb"} {
		c, _ := parseFlags([]string{"-strategy", name}, io.Discard)
		if opts, err := c.options(); err != nil || opts.Strategies[0].String() != name {
			t.Errorf("-strategy %s: %v, %v", name, opts.Strategies, err)
		}
	}
	c, _ := parseFlags([]string{"-strategy", "leapfrog"}, io.Discard)
	if _, err := c.options(); err == nil || !strings.Contains(err.Error(), "fibril, fibril-nounmap, cilkplus, tbb") {
		t.Errorf("-strategy leapfrog: error %v, want one listing the valid names", err)
	}
}
