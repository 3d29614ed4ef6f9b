package core

import (
	"runtime"
	"testing"
	"time"
)

// TestStealPoliciesParfib is the core-level correctness smoke for every
// policy: the victim-selection order and the StealHalf loot protocol must
// not change the computed value, and the loot accounting must keep the
// Steals/TaskStart identity the trace oracle relies on (each loose task
// counts exactly one steal, at extraction).
func TestStealPoliciesParfib(t *testing.T) {
	const n = 18
	want := fibSerial(n)
	for _, pol := range StealPolicies() {
		got, stats := runParfib(t, Config{Workers: 4, StealPolicy: pol}, n)
		if got != want {
			t.Errorf("%s: parfib(%d) = %d, want %d", pol, n, got, want)
		}
		if stats.Forks == 0 {
			t.Errorf("%s: no forks recorded", pol)
		}
	}
}

// TestLastVictimDecay pins the affinity-decay contract: the anchor lasts
// one idle episode. Failed sweeps — a searching thief makes thousands per
// idle millisecond — leave it alone, and a thief that gives up searching
// and parks drops it. The root drives rt.steal directly against an
// otherwise idle runtime, so every sweep fails by construction, while the
// other slot's thief, given an anchor before the workers start, finds
// nothing and parks.
func TestLastVictimDecay(t *testing.T) {
	rt := NewRuntime(Config{Workers: 2, StealPolicy: StealLastVictim})
	rt.workers[0].lastVictim, rt.workers[1].lastVictim = 1, 0
	thief := -1 // the slot the root did not land on
	rt.Run(func(w *W) {
		thief = 1 - w.slot.id
		w.slot.lastVictim = thief // pretend the other slot just fed us
		for i := 0; i < 1000; i++ {
			if _, ok := rt.steal(w, nil); ok {
				t.Fatal("stole from an idle runtime")
			}
		}
		if w.slot.lastVictim != thief {
			t.Errorf("lastVictim = %d after 1000 empty sweeps, want %d: the anchor must outlast the search phase",
				w.slot.lastVictim, thief)
		}
		waitParked(t, rt, 1, 10*time.Second)
	})
	// Run has returned, so the thief goroutine has exited and its slot can
	// be read.
	if got := rt.workers[thief].lastVictim; got != -1 {
		t.Errorf("parked thief kept lastVictim = %d, want -1", got)
	}
}

// TestLeapfrogArenaRecycling is the regression fence for the blanket
// arena exclusion StrategyLeapfrog used to carry: Scratch blocks must
// recycle under the leapfrog join discipline exactly as they do under
// Fibril — acquires balance releases, and a warmed runtime's second run
// stays below one allocation per fork.
func TestLeapfrogArenaRecycling(t *testing.T) {
	const n = 22
	want := fibSerial(n)
	t.Run("the", func(t *testing.T) {
		rt := NewRuntime(Config{Workers: 4, Strategy: StrategyLeapfrog})
		var out int64
		rt.Run(func(w *W) { out = gateFib(w, n) }) // warm
		st0 := rt.Stats()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rt.Run(func(w *W) { out = gateFib(w, n) })
		runtime.ReadMemStats(&m1)
		st := rt.Stats()
		if out != want {
			t.Fatalf("gateFib(%d) = %d, want %d", n, out, want)
		}
		ops := st.Forks - st0.Forks
		got := int64(m1.Mallocs - m0.Mallocs)
		t.Logf("%d allocs over %d forks", got, ops)
		if got >= ops {
			t.Errorf("%d allocs over %d forks: leapfrog is not recycling Scratch blocks", got, ops)
		}
		if st.ArenaAcquires == 0 {
			t.Fatal("no arena acquires recorded")
		}
		if st.ArenaAcquires != st.ArenaReleases {
			t.Errorf("ArenaAcquires=%d != ArenaReleases=%d", st.ArenaAcquires, st.ArenaReleases)
		}
	})
}
