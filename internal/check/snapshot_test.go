package check

import (
	"sync"
	"sync/atomic"
	"testing"

	"fibril/internal/core"
	"fibril/internal/trace"
)

// TestSnapshotConcurrentWithRun hammers Runtime.Snapshot from observer
// goroutines while generated programs execute, then reconciles the final
// snapshot at quiescence. The CI race job runs this package under -race,
// which is the real assertion: every read Snapshot performs must be
// individually synchronized against the scheduler hot paths.
func TestSnapshotConcurrentWithRun(t *testing.T) {
	ms := trace.NewMetricsSink()
	rt := core.NewRuntime(core.Config{
		Workers:          4,
		StackPages:       harnessStackPages,
		MaxResidentPages: 64, // the ceiling's valve reads RSS beside the observers
		Sink:             ms,
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var snaps atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastForks int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				m := rt.Snapshot()
				snaps.Add(1)
				// Monotonic counters never regress across samples, and
				// gauges are never negative.
				if m.Stats.Forks < lastForks {
					t.Errorf("Snapshot: Forks went backwards %d -> %d", lastForks, m.Stats.Forks)
					return
				}
				lastForks = m.Stats.Forks
				if m.Gauges.QueuedTasks < 0 || m.Gauges.ParkedThieves < 0 ||
					m.Gauges.ResidentPages < 0 || m.Gauges.StacksInUse < 0 {
					t.Errorf("Snapshot: negative gauge %+v", m.Gauges)
					return
				}
				if m.Trace == nil {
					t.Error("Snapshot: Trace nil with a MetricsSink attached")
					return
				}
			}
		}()
	}

	for seed := uint64(1); seed <= 8; seed++ {
		p := Generate(seed, Params{})
		counts := make([]uint32, p.Nodes)
		rt.Run(p.Body(counts))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if snaps.Load() == 0 {
		t.Fatal("observer goroutines took no snapshots")
	}

	// Quiescent reconciliation: gauges drain to zero and the metrics
	// sink's histogram populations match the counter plane.
	m := rt.Snapshot()
	st := m.Stats
	if g := m.Gauges; g.QueuedTasks != 0 || g.ParkedThieves != 0 || g.StacksInUse != 0 {
		t.Errorf("gauges not drained at quiescence: %+v", g)
	}
	if got, want := m.Trace.StealLatency.Count, st.Steals; got != want {
		t.Errorf("StealLatency.Count=%d, want Steals=%d", got, want)
	}
	if got, want := m.Trace.JoinWait.Count, st.Suspends; got != want {
		t.Errorf("JoinWait.Count=%d, want Suspends=%d", got, want)
	}
	if got, want := m.Trace.TaskRun.Count, st.Steals-st.RestrictedSteals; got != want {
		t.Errorf("TaskRun.Count=%d, want Steals-RestrictedSteals=%d", got, want)
	}
	if got, want := m.Trace.Events["reclaim"], st.CeilingHits; got != want {
		t.Errorf("reclaim events=%d, want CeilingHits=%d", got, want)
	}
}
