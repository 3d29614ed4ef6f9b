package trace

import (
	"sync"
	"time"
	"unsafe"

	"fibril/internal/cacheline"
)

// Sink consumes the runtime's event stream. The tracer delivers events in
// per-worker batches: within one Consume call the events share a worker
// and appear in that worker's program order, but batches from different
// workers arrive concurrently — a Sink must be safe for concurrent
// Consume calls. The batch slice is reused after Consume returns; a sink
// that retains events must copy them.
type Sink interface {
	Consume(batch []Event)
}

// EventMasker is an optional Sink refinement: a sink that only cares
// about some kinds returns a bitmask (bit i set = wants Kind(i)) and the
// tracer drops the rest before they ever touch a ring buffer, keeping
// masked-out event sites at near-nil-sink cost. Sinks without the method
// receive everything.
type EventMasker interface {
	EventMask() uint64
}

// TimestampFree is an optional Sink refinement: a sink that does not read
// Event.At (histograms, counters) declares so and the tracer skips the
// per-event clock read, the dominant cost of a hot event site.
type TimestampFree interface {
	TimestampFree() bool
}

// MaskAll is the event mask that accepts every kind.
const MaskAll = uint64(1<<numKinds) - 1

// MaskOf builds an event mask from a kind list.
func MaskOf(kinds ...Kind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << k
	}
	return m
}

// ringCap is the per-worker ring size; a full ring flushes its batch to
// the sink and wraps. 256 events keep the flush amortization around one
// sink call per 256 events while bounding the staleness a live reader
// (MetricsSink during a run) can observe.
const ringCap = 256

// ring is one worker slot's event buffer. The mutex is effectively
// uncontended — a slot's events are emitted by the goroutine occupying
// the slot; it exists so slot handoffs stay safe. Rings are elements of
// one slice, rounded up to whole cacheline units so one slot's last
// events and the next slot's header never share one.
type ring struct {
	ringBuf
	_ [cacheline.Size - unsafe.Sizeof(ringBuf{})%cacheline.Size]byte
}

type ringBuf struct {
	mu  sync.Mutex
	seq uint64
	n   int
	buf [ringCap]Event
}

// Tracer fans the runtime's event sites into a Sink through per-worker
// rings: no global lock anywhere on the event path, one clock read per
// event at most (none if the sink is TimestampFree), and a nil *Tracer —
// the disabled state — costs exactly one pointer test per site.
type Tracer struct {
	sink  Sink
	start time.Time
	mask  uint64
	stamp bool
	rings []ring // one per worker slot
}

// NewTracer builds a tracer feeding sink from workers slots. A nil sink
// yields a nil tracer, the disabled state.
func NewTracer(sink Sink, workers int) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{
		sink:  sink,
		start: time.Now(),
		mask:  MaskAll,
		stamp: true,
		rings: make([]ring, workers),
	}
	if m, ok := sink.(EventMasker); ok {
		t.mask = m.EventMask() & MaskAll
	}
	if f, ok := sink.(TimestampFree); ok && f.TimestampFree() {
		t.stamp = false
	}
	return t
}

// Wants reports whether the sink consumes events of kind k — event sites
// use it to skip the clock reads that compute duration payloads. Nil-safe.
func (t *Tracer) Wants(k Kind) bool {
	return t != nil && t.mask&(1<<k) != 0
}

// Emit records one event on the ring of worker, a slot id in
// [0, workers), flushing the ring to the sink when it wraps. Nil-safe: a
// nil tracer ignores the call. The split from emit keeps this guard within
// the inlining budget, so disabled and masked-out event sites cost a
// pointer test and a bit test in place, not a function call.
func (t *Tracer) Emit(worker int, kind Kind, arg int64, dur time.Duration) {
	if t == nil || t.mask&(1<<kind) == 0 {
		return
	}
	t.emit(worker, kind, arg, dur)
}

func (t *Tracer) emit(worker int, kind Kind, arg int64, dur time.Duration) {
	var at time.Duration
	if t.stamp {
		at = time.Since(t.start)
	}
	r := &t.rings[worker]
	r.mu.Lock()
	r.seq++
	r.buf[r.n] = Event{At: at, Worker: worker, Kind: kind, Arg: arg, Dur: dur, Seq: r.seq}
	r.n++
	if r.n == ringCap {
		t.sink.Consume(r.buf[:r.n])
		r.n = 0
	}
	r.mu.Unlock()
}

// Flush drains every ring's partial batch into the sink. The runtime
// calls it at the end of each Run, after the last event site has fired.
// Nil-safe.
func (t *Tracer) Flush() {
	if t == nil {
		return
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		if r.n > 0 {
			t.sink.Consume(r.buf[:r.n])
			r.n = 0
		}
		r.mu.Unlock()
	}
}
