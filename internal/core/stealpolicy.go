package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fibril/internal/trace"
)

// StealPolicy selects the victim-selection (and extraction-width) policy a
// thief uses when its own deque is empty. The policies follow the
// cache-complexity analysis of work stealing (Gu, Napier & Sun, arXiv
// 2111.04994): a steal's true cost is dominated by the cache misses of
// pulling the stolen task's working set, so re-stealing from a recent
// victim (whose data the thief may still cache) or from a topologically
// near one is cheaper than a uniformly random steal, and taking several
// tasks per synchronization amortizes the protocol cost under heavy
// contention. Random remains the default: its load-balancing guarantees
// are the ones the time bound is proved for.
type StealPolicy int

const (
	// StealRandom is the paper's policy and the default: a uniformly
	// random-start round-robin sweep. Its load distribution is what the
	// Blumofe–Leiserson time bound is proved for.
	StealRandom StealPolicy = iota
	// StealLastVictim is last-victim affinity: probe the last successful
	// victim first — a productive victim keeps being drained by the same
	// thief while its tasks' data is still warm in that thief's cache —
	// then fall back to the random sweep. The pre-probe only fires while
	// the anchor has at least two visible tasks, leaving a victim's last
	// task to the random sweep (politeness: draining it forces the
	// victim's next blocked join to suspend). Sweeping onward from the
	// anchor instead of falling back to random would herd every thief
	// sharing a victim into the same probe order.
	StealLastVictim
	// StealNearVictim keeps StealLastVictim's affinity pre-probe, then
	// probes victims in increasing ring distance from the thief itself
	// (self+1, self-1, self+2, ...), modelling a topology where
	// neighbouring slots share cache: the cheap (near) victims are tried
	// first, and every thief has a distinct probe order, so thieves that
	// share a hot victim do not herd into identical sweeps.
	StealNearVictim
	// StealHalf sweeps like StealLastVictim but extracts a batch — up to
	// half the victim's visible queue, capped at lootCap — per successful
	// probe, amortizing the steal protocol under contention. The thief
	// runs the first task and shares the rest through the runtime's
	// overflow queue, where any idle worker picks them up before probing
	// deques, so busy-leaves is preserved. Restricted (inline) stealing
	// always takes a single task regardless of policy.
	StealHalf
)

// String returns the policy's display name as used in the experiments.
func (p StealPolicy) String() string {
	switch p {
	case StealRandom:
		return "random"
	case StealLastVictim:
		return "lastvictim"
	case StealNearVictim:
		return "nearvictim"
	case StealHalf:
		return "stealhalf"
	default:
		return fmt.Sprintf("StealPolicy(%d)", int(p))
	}
}

// StealPolicies lists every implemented policy, in presentation order.
func StealPolicies() []StealPolicy {
	return []StealPolicy{StealRandom, StealLastVictim, StealNearVictim, StealHalf}
}

// lootCap bounds one StealHalf batch extraction.
const lootCap = 8

// looseQueue is the runtime's overflow queue for batch-stolen tasks: a
// StealHalf thief deposits all but one task of its loot here, and every
// unrestricted steal drains it before probing deques. Tasks in it are
// already extracted and already counted as steals; they must never be pushed
// into a worker's own deque (a locally-popped foreign task could trigger a
// slot handoff inside runInline, which is a protocol violation).
type looseQueue struct {
	mu sync.Mutex
	n  atomic.Int64
	ts []task
}

// put deposits ts. Callers wake the park lot afterwards so idle workers
// collect the tasks.
func (q *looseQueue) put(ts []task) {
	q.mu.Lock()
	q.ts = append(q.ts, ts...)
	q.n.Store(int64(len(q.ts)))
	q.mu.Unlock()
}

// take removes one task, LIFO.
func (q *looseQueue) take() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ts) == 0 {
		return task{}, false
	}
	t := q.ts[len(q.ts)-1]
	q.ts[len(q.ts)-1] = task{}
	q.ts = q.ts[:len(q.ts)-1]
	q.n.Store(int64(len(q.ts)))
	return t, true
}

// len reports the queue length (racy snapshot, exact at quiescence).
func (q *looseQueue) len() int { return int(q.n.Load()) }

// steal attempts one round of stealing over the other worker slots under
// the configured StealPolicy; a thief never probes its own deque. Every
// policy skips deques whose Len snapshot is visibly empty and charges the
// probe count to the stealAttempts shard once per sweep instead of once
// per victim. If restrict is non-nil only tasks it accepts are taken
// (depth-restricted and leapfrog disciplines) and extraction is always
// single-task. It returns false after a full unsuccessful sweep so callers
// can decide to back off or re-check their join condition.
func (rt *Runtime) steal(w *W, restrict func(task) bool) (task, bool) {
	// Batch-stolen overflow first: these tasks are already extracted, so any
	// further delay only serializes them. Restricted stealers must not
	// take them — loot is unrestricted base-level work.
	if restrict == nil && rt.loose.n.Load() > 0 {
		if t, ok := rt.loose.take(); ok {
			return t, true // counted at batch extraction
		}
	}
	self := w.slot.id
	n := len(rt.workers)
	pol := rt.cfg.StealPolicy
	probes := int64(0)
	// Steal latency: how long the winning sweep took from entry to
	// acquisition. The clock reads exist only when a sink consumes steal
	// events, so the disabled path stays untimed.
	var sweepStart time.Time
	if rt.trc.Wants(trace.KindSteal) {
		sweepStart = time.Now()
	}
	won := func(victim *worker, t task) (task, bool) {
		w.slot.lastVictim = victim.id
		w.stats.stealAttempts.Add(probes)
		w.stats.steals.Add(1)
		var lat time.Duration
		if !sweepStart.IsZero() {
			lat = time.Since(sweepStart)
		}
		rt.trc.Emit(self, trace.KindSteal, int64(victim.id), lat)
		return t, true
	}
	take := func(victim *worker) (task, bool) {
		probes++
		if pol == StealHalf && restrict == nil {
			return rt.takeBatch(w, victim)
		}
		if restrict == nil {
			return victim.deque.Steal()
		}
		return victim.deque.StealIf(restrict)
	}

	// The affinity policies probe the last successful victim first, then
	// fall back to a full sweep. The pre-probe only fires while the victim
	// is rich (>= 2 visible tasks): draining a victim's last task forces
	// its next blocked join to suspend, so anchored thieves leave it to
	// the sweep.
	lv := w.slot.lastVictim
	if pol != StealRandom && lv >= 0 && lv != self {
		if victim := rt.workers[lv]; victim.deque.Len() >= 2 {
			if t, ok := take(victim); ok {
				return won(victim, t)
			}
		}
	}
	switch pol {
	case StealNearVictim:
		// Distance-ordered sweep outward from the thief's own slot:
		// self+1, self-1, self+2, ... Near (cheap) victims first, and a
		// probe order unique to this thief — no herding.
		for i := 1; i < n; i++ {
			step := (i + 1) / 2
			if i%2 == 0 {
				step = -step
			}
			victim := rt.workers[((self+step)%n+n)%n]
			if victim.id == self || victim.deque.Len() == 0 {
				continue
			}
			if t, ok := take(victim); ok {
				return won(victim, t)
			}
		}
	default: // StealRandom, StealLastVictim, StealHalf
		start := int(w.slot.rng.next() % uint64(n))
		for i := 0; i < n; i++ {
			victim := rt.workers[(start+i)%n]
			if victim.id == self || victim.deque.Len() == 0 {
				continue
			}
			if t, ok := take(victim); ok {
				return won(victim, t)
			}
		}
	}
	// Full sweep failed. The affinity anchor survives it: a searching thief
	// sweeps thousands of times per idle millisecond, so the anchor lasts
	// one idle episode — thiefLoop drops it when the thief parks — not a
	// number of sweeps. A sweep that probed nothing (every victim visibly
	// empty, the common case while searching) writes no shared counter.
	if probes != 0 {
		w.stats.stealAttempts.Add(probes)
	}
	return task{}, false
}

// takeBatch is the StealHalf extraction: take up to half the victim's
// visible queue (at most lootCap) in one StealBatch, run the first task and
// deposit the rest in the overflow queue for other idle workers. Every
// extracted task counts as one steal, so the trace and counter identities
// (TaskStart == Steals - RestrictedSteals, Suspends <= Steals) are
// unchanged by batching.
func (rt *Runtime) takeBatch(w *W, victim *worker) (task, bool) {
	want := victim.deque.Len() / 2
	if want < 1 {
		want = 1
	}
	if want > lootCap {
		want = lootCap
	}
	var buf [lootCap]task
	m := victim.deque.StealBatch(buf[:want])
	if m == 0 {
		return task{}, false
	}
	// The caller's won() accounts for the first task; account for the
	// extras here, then share them before running anything so parked
	// workers can start on them immediately — one wake per shared task.
	if extras := buf[1:m]; len(extras) > 0 {
		w.stats.steals.Add(int64(len(extras)))
		for range extras {
			rt.trc.Emit(w.slot.id, trace.KindSteal, int64(victim.id), 0)
		}
		rt.loose.put(extras)
		rt.park.wake(len(extras))
	}
	return buf[0], true
}
