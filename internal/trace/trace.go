// Package trace is the runtime's observability layer: scheduler events
// from the real runtime (internal/core) — when work was stolen, when
// frames suspended and resumed, when stacks were unmapped — flow through
// per-worker ring buffers (Tracer) into a pluggable Sink. The paper's
// Table 2 aggregates exactly these events; the sinks expose them three
// ways:
//
//   - Recorder buffers them for post-mortem inspection, with a text
//     timeline renderer for eyeballing load balance;
//   - ChromeSink streams them as Chrome trace_event JSON that loads in
//     Perfetto / about:tracing;
//   - MetricsSink folds them into fixed-bucket latency histograms and
//     counters cheap enough to read while the runtime is executing.
//
// Tracing is opt-in (core.Config.Sink); with no sink attached every event
// site costs one pointer test.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind classifies a scheduler event.
type Kind uint8

const (
	// KindFork: a child task was pushed (arg: frame depth).
	KindFork Kind = iota
	// KindSteal: a task was stolen (arg: victim worker; dur: how long the
	// winning steal sweep took).
	KindSteal
	// KindSuspend: a frame suspended at a join (arg: stack id).
	KindSuspend
	// KindResume: a suspended frame resumed (arg: stack id).
	KindResume
	// KindUnmap: a suspended stack's pages were returned (arg: pages freed).
	KindUnmap
	// KindTaskStart: a worker began executing a stolen task (arg: depth).
	KindTaskStart
	// KindTaskEnd: a stolen task completed (arg: depth; dur: how long the
	// stolen task ran).
	KindTaskEnd
	// KindReclaim: the RSS ceiling forced a reclaim pass (arg: pages freed).
	KindReclaim
	// KindJoinWait: a suspended joiner resumed (arg: stack id; dur: how
	// long it was parked). Emitted by the resumed owner, where KindResume
	// is emitted by the finishing worker that woke it.
	KindJoinWait
	// KindJobStart: a worker began executing a submitted root Job
	// (arg: job id). Submitted roots deliberately do not emit
	// KindTaskStart/KindTaskEnd — those remain reserved for stolen tasks,
	// so the trace-reconciliation law (task events == base steals) holds
	// under concurrent submission.
	KindJobStart
	// KindJobDone: a submitted root Job completed (arg: job id; dur:
	// submission-to-completion latency — the request latency a serving
	// workload reports).
	KindJobDone

	// numKinds bounds the Kind space for mask and counter arrays.
	numKinds = 11
)

// NumKinds returns the number of defined event kinds.
func NumKinds() int { return numKinds }

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFork:
		return "fork"
	case KindSteal:
		return "steal"
	case KindSuspend:
		return "suspend"
	case KindResume:
		return "resume"
	case KindUnmap:
		return "unmap"
	case KindTaskStart:
		return "start"
	case KindTaskEnd:
		return "end"
	case KindReclaim:
		return "reclaim"
	case KindJoinWait:
		return "joinwait"
	case KindJobStart:
		return "jobstart"
	case KindJobDone:
		return "jobdone"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded scheduler event.
type Event struct {
	At     time.Duration // since the tracer's (or recorder's) start
	Worker int           // worker slot id (-1 if unknown)
	Kind   Kind
	Arg    int64
	Dur    time.Duration // duration payload for latency kinds (0 otherwise)
	Seq    uint64        // per-worker emission order (1-based, monotonic)
}

// Recorder accumulates events in memory — the buffered post-mortem sink.
// It implements Sink, so it can terminate a Tracer's ring buffers, and it
// keeps the standalone Record method for direct use. Safe for concurrent
// use; Record/Consume are short critical sections (tracing trades some
// perturbation for visibility, as any tracer does).
type Recorder struct {
	start time.Time

	mu      sync.Mutex
	events  []Event
	limit   int
	dropped int64
	seq     uint64 // sequence source for direct Record calls
}

// NewRecorder creates a recorder capped at limit events (0 = 1<<20).
// Events past the cap are dropped and counted (see Dropped).
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &Recorder{start: time.Now(), limit: limit}
}

// Record appends an event, stamping it against the recorder's own clock.
// Nil-safe: a nil recorder ignores the call.
func (r *Recorder) Record(worker int, kind Kind, arg int64) {
	if r == nil {
		return
	}
	at := time.Since(r.start)
	r.mu.Lock()
	if len(r.events) < r.limit {
		r.seq++
		r.events = append(r.events, Event{At: at, Worker: worker, Kind: kind, Arg: arg, Seq: r.seq})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Consume implements Sink: the batch's events (already stamped and
// sequenced by the tracer) are appended verbatim, dropping past the cap.
func (r *Recorder) Consume(batch []Event) {
	r.mu.Lock()
	if room := r.limit - len(r.events); room < len(batch) {
		r.dropped += int64(len(batch) - room)
		batch = batch[:room]
	}
	r.events = append(r.events, batch...)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events, stably ordered by
// (time, worker, per-worker sequence). The worker and sequence tiebreaks
// keep the order deterministic when a coarse clock stamps concurrent
// events with equal timestamps.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Worker != out[j].Worker {
			return out[i].Worker < out[j].Worker
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped returns how many events were discarded at the cap.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset drops all events and restarts the clock.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = r.events[:0]
	r.dropped = 0
	r.seq = 0
	r.start = time.Now()
	r.mu.Unlock()
}

// Counts aggregates events by kind — the tracer-side view of Table 2.
func (r *Recorder) Counts() map[Kind]int {
	counts := map[Kind]int{}
	r.mu.Lock()
	for _, e := range r.events {
		counts[e.Kind]++
	}
	r.mu.Unlock()
	return counts
}

// Timeline renders a per-worker text timeline of the recorded events with
// the given bucket width: one lane per worker, one column per bucket, the
// densest event kind's initial in each cell.
func (r *Recorder) Timeline(w io.Writer, bucket time.Duration) error {
	events := r.Events()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	if bucket <= 0 {
		bucket = time.Millisecond
	}
	maxWorker := 0
	span := events[len(events)-1].At
	for _, e := range events {
		if e.Worker > maxWorker {
			maxWorker = e.Worker
		}
	}
	cols := int(span/bucket) + 1
	if cols > 120 {
		cols = 120
		bucket = span/119 + 1
	}
	glyph := map[Kind]byte{
		KindFork: 'f', KindSteal: 'S', KindSuspend: 'z',
		KindResume: 'R', KindUnmap: 'u', KindTaskStart: '>', KindTaskEnd: '<',
		KindReclaim: 'r', KindJoinWait: 'j',
		KindJobStart: 'J', KindJobDone: 'E',
	}
	// Rank kinds so rarer, more interesting events win a contested cell.
	rank := map[Kind]int{
		KindFork: 0, KindTaskEnd: 1, KindTaskStart: 2, KindJoinWait: 3,
		KindUnmap: 4, KindSteal: 5, KindResume: 6,
		KindSuspend: 7, KindReclaim: 8, KindJobStart: 9, KindJobDone: 10,
	}
	lanes := make([][]byte, maxWorker+1)
	laneRank := make([][]int, maxWorker+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", cols))
		laneRank[i] = make([]int, cols)
		for j := range laneRank[i] {
			laneRank[i][j] = -1
		}
	}
	for _, e := range events {
		if e.Worker < 0 {
			continue
		}
		c := int(e.At / bucket)
		if c >= cols {
			c = cols - 1
		}
		if rk := rank[e.Kind]; rk > laneRank[e.Worker][c] {
			lanes[e.Worker][c] = glyph[e.Kind]
			laneRank[e.Worker][c] = rk
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %v total, %v/column; f=fork S=steal z=suspend R=resume u=unmap r=reclaim j=joinwait J=jobstart E=jobdone >=start <=end\n",
		span.Round(time.Microsecond), bucket)
	for i, lane := range lanes {
		fmt.Fprintf(&b, "w%-3d %s\n", i, lane)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
