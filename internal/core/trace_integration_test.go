package core

import (
	"strings"
	"testing"
	"time"

	"fibril/internal/trace"
)

func TestTracerRecordsSchedulerEvents(t *testing.T) {
	rec := trace.NewRecorder(0)
	rt := NewRuntime(Config{Workers: 8, Strategy: StrategyFibril, Sink: rec})
	var out int64
	rt.Run(func(w *W) { parfib(w, 20, &out) })
	stats := rt.Stats()

	counts := rec.Counts()
	if int64(counts[trace.KindFork]) != stats.Forks {
		t.Errorf("traced forks %d != counted %d", counts[trace.KindFork], stats.Forks)
	}
	if int64(counts[trace.KindSteal]) != stats.Steals {
		t.Errorf("traced steals %d != counted %d", counts[trace.KindSteal], stats.Steals)
	}
	if int64(counts[trace.KindSuspend]) != stats.Suspends {
		t.Errorf("traced suspends %d != counted %d", counts[trace.KindSuspend], stats.Suspends)
	}
	if int64(counts[trace.KindResume]) != stats.Resumes {
		t.Errorf("traced resumes %d != counted %d", counts[trace.KindResume], stats.Resumes)
	}
	if int64(counts[trace.KindUnmap]) != stats.Unmaps {
		t.Errorf("traced unmaps %d != counted %d", counts[trace.KindUnmap], stats.Unmaps)
	}
	// Every stolen task produces a start/end pair.
	if counts[trace.KindTaskStart] != counts[trace.KindTaskEnd] {
		t.Errorf("start %d != end %d", counts[trace.KindTaskStart], counts[trace.KindTaskEnd])
	}
	if int64(counts[trace.KindTaskStart]) != stats.Steals {
		t.Errorf("task starts %d != steals %d", counts[trace.KindTaskStart], stats.Steals)
	}

	var b strings.Builder
	if err := rec.Timeline(&b, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "w0") {
		t.Error("timeline missing worker 0 lane")
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Without a tracer the runtime must work identically (nil-safe sites).
	rt := NewRuntime(Config{Workers: 4})
	var out int64
	rt.Run(func(w *W) { parfib(w, 15, &out) })
	if out != 610 {
		t.Errorf("parfib(15) = %d", out)
	}
}
