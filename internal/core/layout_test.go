package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"fibril/internal/cacheline/layouttest"
)

// The groups of each padded type, by writer (DESIGN.md §7). Every field
// must be listed, so a new one has to be given a writer before these tests
// pass.
var (
	workerGroups = [][]string{
		{"id", "deque"},              // fixed at NewRuntime; read by the occupant and by thieves
		{"rng", "arena", "counters"}, // the occupant's
	}
	runtimeGroups = [][]string{
		{"cfg", "as", "pool", "workers", "park", "trc"}, // read-mostly
		{"admit"}, // per admission / root taken / completion / lifecycle
	}
	parkGroup = []string{"mu", "closed", "ws", "free", "nfree", "nidle", "live", "starts"}
	// A Frame is not padded — it lives inside a Scratch block or a caller's
	// own variable — so its fields are listed by writer without distances.
	frameFields = []string{
		"count",          // thieves, under the victim's deque lock and at child completion; the owner's commit CAS
		"pending",        // the owner, on every Fork and Join
		"owner", "depth", // the owner, at Init
		"panicked", // whoever ran the first child to panic; the owner's Join
	}
)

// TestLayout pins who-writes-which-line for the core's per-slot and
// per-goroutine state with offsets alone.
func TestLayout(t *testing.T) {
	layouttest.Groups(t, worker{}, workerGroups...)
	layouttest.Groups(t, Runtime{}, runtimeGroups...)
	layouttest.Groups(t, parkLot{}, parkGroup)
	// A W is touched by its own goroutine only, but for the hand-off (sem,
	// next) a deliverer writes while that goroutine waits without a slot:
	// one group, kept off its neighbours. The last
	// four are the private per-fork counters; spawn is nil except under the
	// two baselines with a spawn prologue.
	layouttest.Groups(t, W{}, []string{"rt", "slot", "stack", "depth", "frame",
		"sem", "next", "strategy", "wantsFork", "spawn",
		"forks", "calls", "arenaAcquires", "arenaReleases"})

	frame := reflect.TypeOf(Frame{})
	for i := 0; i < frame.NumField(); i++ {
		if n := frame.Field(i).Name; !slices.Contains(frameFields, n) {
			t.Errorf("core.Frame: field %s has no writer listed: decide who writes it", n)
		}
	}
	if n := len(frameFields); n != frame.NumField() {
		t.Errorf("core.Frame has %d fields, %d listed", frame.NumField(), n)
	}
	// A Frame is four words, and one Scratch (168 bytes) is one object of
	// Go's 176-byte size class (160 is the class below): two Frame words more
	// move every fork/join region's block up a class.
	if sz := unsafe.Sizeof(Frame{}); sz != 32 {
		t.Errorf("core.Frame is %d bytes, want 32", sz)
	}
	if sz := unsafe.Sizeof(Scratch{}); sz <= 160 || sz > 176 {
		t.Errorf("core.Scratch is %d bytes, outside the 176-byte size class (160, 176]", sz)
	}
}

// TestTaskRecordSize pins the one record every deque entry, root hand-off and
// exec call is: two words of code and argument, the frame, and the packed
// sizes. Every fork copies it into the ring and every pop or steal copies it
// out, so a word more is paid per fork; a second function representation or a
// field only one strategy reads belongs somewhere else (DESIGN.md §6).
func TestTaskRecordSize(t *testing.T) {
	if sz := unsafe.Sizeof(task{}); sz != 32 {
		t.Errorf("core.task is %d bytes, want 32", sz)
	}
}

// TestLayoutRealAddresses checks a live Workers=4 runtime: Go aligns a heap
// object to its size class only, so the offsets TestLayout checks say
// nothing about where two slots' objects end up relative to each other. No
// hot range of one slot — its deque (whose two halves package deque's own
// test tells apart), its worker's two groups, the second holding its
// counters — may touch a cacheline unit that another slot's, the park lot's
// or a Runtime group's (the admission group's, with the ready list, among
// them) touches. Its one subtest is named after the THE deque only so that
// its recorded test name stays stable.
func TestLayoutRealAddresses(t *testing.T) {
	t.Run("the", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4})
		var xs []layouttest.Extent
		for i, g := range runtimeGroups {
			xs = append(xs, layouttest.Of(fmt.Sprintf("Runtime group %d", i), rt, g...))
		}
		xs = append(xs, layouttest.Of("park lot", rt.park, parkGroup...))
		for i, w := range rt.workers {
			slot := fmt.Sprintf("slot %d", i)
			xs = append(xs, layouttest.Of(slot+" deque", w.deque))
			for g, fields := range workerGroups {
				xs = append(xs, layouttest.Of(fmt.Sprintf("%s worker group %d", slot, g), w, fields...))
			}
		}
		layouttest.Disjoint(t, xs)
		rt.Run(func(w *W) {}) // the runtime under inspection works (and stays live)
	})
}
