package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// captureSink retains every batch it is handed (copied — the tracer
// reuses the batch slice).
type captureSink struct {
	mu      sync.Mutex
	batches [][]Event
}

func (c *captureSink) Consume(batch []Event) {
	cp := make([]Event, len(batch))
	copy(cp, batch)
	c.mu.Lock()
	c.batches = append(c.batches, cp)
	c.mu.Unlock()
}

func (c *captureSink) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, b := range c.batches {
		out = append(out, b...)
	}
	return out
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr != NewTracer(nil, 4) {
		t.Fatal("NewTracer(nil sink) should be the nil tracer")
	}
	tr.Emit(0, KindFork, 1, 0) // must not panic
	tr.Flush()
	if tr.Wants(KindFork) {
		t.Fatal("nil tracer Wants anything")
	}
}

func TestTracerBuffersAndFlushes(t *testing.T) {
	sink := &captureSink{}
	tr := NewTracer(sink, 2)
	tr.Emit(0, KindFork, 7, 0)
	tr.Emit(1, KindSteal, 0, time.Microsecond)
	if got := sink.all(); len(got) != 0 {
		t.Fatalf("sink saw %d events before flush or wrap", len(got))
	}
	tr.Flush()
	got := sink.all()
	if len(got) != 2 {
		t.Fatalf("flushed %d events, want 2", len(got))
	}
	for _, e := range got {
		if e.Seq == 0 {
			t.Errorf("event %+v has no sequence number", e)
		}
		if e.At == 0 {
			t.Errorf("event %+v has no timestamp (sink is not TimestampFree)", e)
		}
	}
	// Filling a ring past capacity must deliver without an explicit flush.
	for i := 0; i < ringCap; i++ {
		tr.Emit(0, KindFork, int64(i), 0)
	}
	if got := sink.all(); len(got) != 2+ringCap {
		t.Fatalf("after ring wrap sink has %d events, want %d", len(got), 2+ringCap)
	}
	// Within a worker the stream is in emission order.
	var prev uint64
	for _, e := range sink.all() {
		if e.Worker != 0 {
			continue
		}
		if e.Seq <= prev {
			t.Fatalf("worker 0 sequence went %d -> %d", prev, e.Seq)
		}
		prev = e.Seq
	}
}

// maskedSink wants only steals and declines timestamps.
type maskedSink struct{ captureSink }

func (m *maskedSink) EventMask() uint64   { return MaskOf(KindSteal) }
func (m *maskedSink) TimestampFree() bool { return true }

func TestTracerMaskAndTimestampFree(t *testing.T) {
	sink := &maskedSink{}
	tr := NewTracer(sink, 1)
	if tr.Wants(KindFork) || !tr.Wants(KindSteal) {
		t.Fatalf("mask not honoured: wants fork=%v steal=%v", tr.Wants(KindFork), tr.Wants(KindSteal))
	}
	tr.Emit(0, KindFork, 0, 0)
	tr.Emit(0, KindSteal, 3, time.Millisecond)
	tr.Flush()
	got := sink.all()
	if len(got) != 1 || got[0].Kind != KindSteal {
		t.Fatalf("masked tracer delivered %+v, want one steal", got)
	}
	if got[0].At != 0 {
		t.Fatalf("TimestampFree sink got stamped event: %+v", got[0])
	}
	if got[0].Dur != time.Millisecond {
		t.Fatalf("duration payload lost: %+v", got[0])
	}
}

func TestChromeSinkJSON(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeSink(&buf)
	cs.Consume([]Event{
		{At: 1500, Worker: 0, Kind: KindFork, Arg: 2},
		{At: 3 * time.Microsecond, Worker: 1, Kind: KindTaskEnd, Arg: 1, Dur: 2 * time.Microsecond},
	})
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0]["ph"] != "i" || events[0]["name"] != "fork" || events[0]["ts"] != 1.5 {
		t.Errorf("instant event wrong: %v", events[0])
	}
	if events[1]["ph"] != "X" || events[1]["ts"] != 1.0 || events[1]["dur"] != 2.0 {
		t.Errorf("complete slice wrong (ts should be At-Dur): %v", events[1])
	}
}

func TestChromeSinkEmpty(t *testing.T) {
	var buf bytes.Buffer
	cs := NewChromeSink(&buf)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty trace should be a valid empty array, got %q (%v)", buf.String(), err)
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram("", []int64{1, 2, 4, 8})
	for _, v := range []int64{1, 2, 2, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 108 {
		t.Fatalf("Count=%d Sum=%d, want 5/108", s.Count, s.Sum)
	}
	// 1 -> bucket0; 2,2 -> bucket1; 3 -> bucket2(<=4); 100 -> overflow.
	want := []int64{1, 2, 1, 0, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("Counts=%v, want %v", s.Counts, want)
		}
	}
	if m := s.Mean(); m != 108.0/5 {
		t.Errorf("Mean=%v", m)
	}
	if q := s.Quantile(0.5); q != 2 {
		t.Errorf("p50=%d, want 2", q)
	}
	if q := s.Quantile(1.0); q != 8 {
		t.Errorf("p100=%d, want last bound 8 for overflow", q)
	}
	// The rank is a ceiling: the median of three is the second value, not
	// the minimum, and p999 of 160 is the largest.
	tail := make([]int64, 160)
	for i := range tail {
		tail[i] = 1
	}
	tail[159] = 1000
	for _, c := range []struct {
		values []int64
		q      float64
		want   int64
	}{
		{[]int64{1, 100, 1000}, 0.5, 128},
		{tail, 0.999, 1024},
	} {
		h := newHistogram("", []int64{1, 128, 1024})
		for _, v := range c.values {
			h.Observe(v)
		}
		if got := h.Snapshot().Quantile(c.q); got != c.want {
			t.Errorf("%d values: Quantile(%v)=%d, want %d", len(c.values), c.q, got, c.want)
		}
	}
	var zero HistogramSnapshot
	if zero.Mean() != 0 || zero.Quantile(0.5) != 0 {
		t.Error("zero snapshot should report 0s")
	}
}

func TestMetricsSinkAggregates(t *testing.T) {
	m := NewMetricsSink()
	m.Consume([]Event{
		{Kind: KindSteal, Dur: 600},
		{Kind: KindSteal, Dur: 100},
		{Kind: KindJoinWait, Dur: 1000},
		{Kind: KindTaskEnd, Dur: 2000},
		{Kind: KindUnmap, Arg: 32},
	})
	s := m.Snapshot()
	if s.StealLatency.Count != 2 || s.StealLatency.Sum != 700 {
		t.Errorf("steal latency %+v", s.StealLatency)
	}
	if s.JoinWait.Count != 1 || s.TaskRun.Count != 1 {
		t.Errorf("joinwait=%d taskrun=%d, want 1/1", s.JoinWait.Count, s.TaskRun.Count)
	}
	if s.Events["steal"] != 2 || s.Events["unmap"] != 1 {
		t.Errorf("event counts %v", s.Events)
	}
	if !strings.Contains(s.String(), "steal-latency") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestRecorderStableOrder(t *testing.T) {
	r := NewRecorder(0)
	// Same timestamp everywhere: order must fall back to (worker, seq).
	r.Consume([]Event{
		{At: 10, Worker: 1, Kind: KindFork, Seq: 2},
		{At: 10, Worker: 1, Kind: KindFork, Seq: 1},
		{At: 10, Worker: 0, Kind: KindFork, Seq: 5},
	})
	got := r.Events()
	if got[0].Worker != 0 || got[1].Seq != 1 || got[2].Seq != 2 {
		t.Fatalf("order not (time, worker, seq): %+v", got)
	}
}

func TestRecorderDropsAtCap(t *testing.T) {
	r := NewRecorder(2)
	r.Consume(make([]Event, 5))
	r.Consume(make([]Event, 3))
	if r.Len() != 2 || r.Dropped() != 6 {
		t.Fatalf("Len=%d Dropped=%d, want 2/6", r.Len(), r.Dropped())
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("Reset did not clear")
	}
}
