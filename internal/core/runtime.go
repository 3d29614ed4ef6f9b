// Package core implements the Fibril work-stealing runtime — the paper's
// primary contribution (SPAA 2016, §4) — together with the baseline
// schedulers it is evaluated against (§3, §5).
//
// # Execution model
//
// The paper's Fibril steals continuations: a thief resumes the parent
// function mid-body on a fresh machine stack, using the x86-64 calling
// convention to keep the original frame addressable. Go forbids that
// mechanism outright (the Go runtime owns goroutine stacks), so this
// implementation performs the equivalent *child-stealing with suspension*
// transformation, keeping the paper's scheduler state machine (Listing 3)
// intact:
//
//   - a runtime "stack" is a (goroutine, simulated page-granular
//     stack.Stack) pair for as long as the goroutine occupies a worker slot
//     or is suspended; a goroutine without a slot waits on its W's one
//     hand-off for a slot to be delivered;
//   - Fork pushes the child task on the worker slot's deque and the parent
//     keeps running (the child is what thieves steal). It notes the child in
//     the frame's owner-private tally and touches nothing shared: as in
//     Listing 3, a child is counted on its frame by the thief that takes it,
//     inside the victim's deque lock, not by the Fork that publishes it;
//   - Join first drains the slot's own deque, popping while the frame may
//     still have children there and executing what it pops inline (the order
//     work-first Cilk would have executed them in; a popped child was never
//     counted, so finishing it notifies nobody). The first Pop to fail takes
//     the deque lock and finds the deque empty, so it is ordered after every
//     steal's count; only then does Join read the frame's count, which is the
//     children stolen and not yet finished. If it is not zero the parent
//     SUSPENDS: its goroutine unmaps the unused pages above its stack's top
//     (Listing 3 line 63), hands its worker slot to a replacement thief — a
//     goroutine without a slot if one waits — running on a pool stack (line
//     93), and waits;
//   - when the LAST stolen child of a suspended frame completes, the
//     finishing goroutine puts its own stack into the pool, lists itself on
//     the park lot, and delivers its worker slot to the parked parent (lines
//     68–75), which resumes on its original stack.
//
// Each of the P worker slots is occupied by a runnable goroutine or free on
// the park lot, and a slot stays free only while no work is visible, so the
// busy-leaves property — the basis of the paper's space bounds — holds by
// construction.
//
// # Strategies
//
// The Strategy selects the policy the paper measures on real hardware
// (Figure 3, §5): Fibril with madvise-based unmap, Fibril without unmap,
// Cilk Plus (bounded stack pool, no unmap) and TBB (depth-restricted
// stealing executed inline on the joiner's own stack, which is why TBB needs
// no suspension and no extra stacks but forfeits the time bound). The
// serialized-mmap unmap, leapfrogging and Cilk-M are reproduced by the
// simulator only (internal/sim).
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"fibril/internal/cacheline"
	"fibril/internal/deque"
	"fibril/internal/stack"
	"fibril/internal/trace"
	"fibril/internal/vm"
)

// Strategy selects the scheduling/stack-management policy.
type Strategy int

const (
	// StrategyFibril is the paper's contribution: suspension with
	// madvise-based unmap of the suspended stack's unused pages.
	StrategyFibril Strategy = iota
	// StrategyFibrilNoUnmap is the paper's ablation: identical scheduling,
	// but suspended stacks keep their pages (unmap is a no-op).
	StrategyFibrilNoUnmap
	// StrategyCilkPlus models Intel Cilk Plus: suspension like Fibril, no
	// unmap, a *bounded* stack pool (thieves refrain from stealing when it
	// is empty), and a heavier spawn path.
	StrategyCilkPlus
	// StrategyTBB models Intel TBB: a blocked join never suspends; the
	// worker steals only tasks strictly deeper than the joining frame and
	// executes them inline on its own stack. Heap-allocated task objects
	// make the spawn path the heaviest of all.
	StrategyTBB
)

// String returns the strategy's display name as used in the experiments.
func (s Strategy) String() string {
	switch s {
	case StrategyFibril:
		return "fibril"
	case StrategyFibrilNoUnmap:
		return "fibril-nounmap"
	case StrategyCilkPlus:
		return "cilkplus"
	case StrategyTBB:
		return "tbb"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists every implemented strategy, in presentation order.
func Strategies() []Strategy {
	return []Strategy{StrategyFibril, StrategyFibrilNoUnmap, StrategyCilkPlus, StrategyTBB}
}

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the number of worker slots P. Defaults to GOMAXPROCS.
	Workers int
	// Strategy selects the scheduling policy. Default StrategyFibril.
	Strategy Strategy
	// StackPages is the size of each simulated stack. Default
	// stack.DefaultStackPages (1 MB of 4 KB pages, as in the paper).
	StackPages int
	// Seed seeds the per-worker steal RNGs. 0 means a fixed default, so
	// runs are reproducible by default.
	Seed uint64
	// MaxResidentPages > 0 is a soft ceiling on simulated RSS: a worker
	// about to map fresh stack pages (or suspending) while over the
	// ceiling first reclaims the resident residue of free pooled stacks.
	// 0 disables the ceiling.
	MaxResidentPages int64
	// MaxInflight > 0 bounds the number of admitted-but-incomplete Jobs a
	// serving runtime carries at once; Submit calls beyond it wait in a
	// FIFO admission queue. 0 means unlimited.
	MaxInflight int
	// Sink, when non-nil, receives the scheduler event stream (forks,
	// steals, suspensions, resumptions, unmaps, reclaims, job lifecycle)
	// through per-worker ring buffers: a trace.Recorder for post-mortem
	// inspection, a trace.ChromeSink for Perfetto-loadable streaming, a
	// trace.MetricsSink for live histograms, or any custom Sink. A nil
	// sink costs one pointer test per event site.
	Sink trace.Sink
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StackPages <= 0 {
		c.StackPages = stack.DefaultStackPages
	}
	// A negative bound means what 0 means: off.
	c.MaxResidentPages = max(c.MaxResidentPages, 0)
	c.MaxInflight = max(c.MaxInflight, 0)
	if c.Seed == 0 {
		c.Seed = 0x9E3779B97F4A7C15
	}
	return c
}

// worker is one worker slot: Listing 3's worker_t, a (deque, stack) pair.
// The stack half lives on the goroutine currently occupying the slot (see
// package comment); the slot itself carries the deque (Slot, PushSlot,
// PopRepublish, Publish and LazyHint are the occupant's; StealIf and Len any
// worker's), the steal RNG, its Scratch arena and its scheduler counters.
//
// Slots are allocated one by one, back to back, and the fields are laid
// out by writer (DESIGN.md §7), two groups a pad apart: what nobody
// writes after NewRuntime but the occupant reads on every Fork and every
// thief reads on every probe; and what only the occupant writes (the arena
// list twice per fork/join region, the counters). Stats reads the counters
// from anywhere, which is why they are atomic. The outer pads matter as
// much: one slot's arena stores must not land on the line holding its
// neighbour's deque word.
type worker struct {
	_ cacheline.Pad

	// Fixed at NewRuntime.
	id    int
	deque *deque.Deque[task]

	_ cacheline.Pad

	// Written only by the goroutine occupying the slot.
	rng rng
	// arena is the slot's Blelloch–Wei-style free list of fixed-size
	// Scratch blocks (frame + fork payload), no atomics.
	arena frameArena
	counters

	_ cacheline.Pad
}

// task is what a deque, the root hand-off and exec see: a code pointer and
// its argument, both plain pointers that travel by value, so nothing escapes
// per fork. Every entry has this one shape. A ForkArg child is the caller's
// (fn, arg) as given; a closure child is runClosure with the closure in arg;
// a submitted root is runJobRoot with its *Job in arg and no frame. arg is an
// unsafe.Pointer, never a uintptr: the deque's ring is what keeps a forked
// closure alive until it runs.
type task struct {
	fn    func(*W, unsafe.Pointer)
	arg   unsafe.Pointer
	frame *Frame // parent frame to notify on completion; nil for a root
	bytes int32  // simulated activation-frame size
	depth int32  // invocation-tree depth of the child
}

// closureArg is fn as the arg word of a runClosure task: a func value is a
// pointer to its closure object, and that pointer is what travels.
func closureArg(fn func(*W)) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&fn))
}

// runClosure is the fn of every closure task: p is closureArg's result.
func runClosure(w *W, p unsafe.Pointer) {
	(*(*func(*W))(unsafe.Pointer(&p)))(w)
}

// runJobRoot is the fn of every root task: p is the *Job.
func runJobRoot(w *W, p unsafe.Pointer) {
	(*Job)(p).root(w)
}

// spawnState is what the Cilk Plus and TBB baselines' spawn prologue writes
// (W.spawnPrologue). Only their Ws have one.
type spawnState struct {
	frame [8]uint64 // Cilk Plus: the __cilkrts_stack_frame the prologue fills
	task  *tbbTask  // TBB: the task object of the latest spawn
}

// tbbTask models TBB's heap-allocated task object with its reference count;
// allocating and touching one per spawn is what makes the TBB baseline's
// fork path expensive (Figure 3).
type tbbTask struct {
	refcount atomic.Int32
	parent   *Frame
	depth    int32
	_        [4]int64 // payload padding to a realistic object size
}

// Runtime is one parallel execution context. The fields are laid out by
// who writes them and how often (DESIGN.md §7): every Fork, steal sweep
// and Submit dereferences the first group, so nothing in it is written
// after NewRuntime; the group below it is written per admission, root taken
// and completion, a pad apart from it.
type Runtime struct {
	_ cacheline.Pad

	cfg     Config
	as      *vm.AddressSpace
	pool    *stack.Pool
	workers []*worker
	park    *parkLot

	// trc fans scheduler events into the configured sink through
	// per-worker rings; nil when observability is disabled.
	trc *trace.Tracer

	_ cacheline.Pad

	// Written under the admission mutex once per Submit, once per root
	// taken, once per completion and by lifecycle transitions (it also
	// holds the job counters and the ready list of admitted roots; see
	// job.go).
	admit admitState

	_ cacheline.Pad
}

// NewRuntime creates a runtime with the given configuration. The runtime
// owns a fresh simulated address space and stack pool, which is bounded at
// stack.CilkPlusDefaultLimit stacks under StrategyCilkPlus and unbounded
// under every other strategy. It panics on a Strategy that is not one of
// Strategies().
func NewRuntime(cfg Config) *Runtime {
	if !slices.Contains(Strategies(), cfg.Strategy) {
		panic(fmt.Sprintf("core: unknown strategy %v", cfg.Strategy))
	}
	cfg = cfg.withDefaults()
	limit := 0
	if cfg.Strategy == StrategyCilkPlus {
		limit = stack.CilkPlusDefaultLimit
	}
	as := vm.NewAddressSpace()
	rt := &Runtime{
		cfg:  cfg,
		as:   as,
		pool: stack.NewPool(as, cfg.StackPages, limit),
		park: new(parkLot),
		trc:  trace.NewTracer(cfg.Sink, cfg.Workers),
	}
	rt.admit.max = cfg.MaxInflight
	rt.workers = make([]*worker, cfg.Workers)
	for i := range rt.workers {
		rt.workers[i] = &worker{
			id:    i,
			deque: &deque.Deque[task]{},
			rng:   newRNG(cfg.Seed + uint64(i)*0x1234567),
		}
	}
	rt.park.ws = make([]*W, 0, cfg.Workers)
	rt.park.free = make([]*worker, 0, cfg.Workers)
	return rt
}

// Config returns the effective (defaulted) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// newW builds a worker context with the hot Config fields cached on it, so
// the fork fast path reads no runtime state beyond the W and its slot: the
// strategy, the spawn-prologue state of the two baselines that have one,
// and whether any sink consumes fork events. The tracer's want-mask and the
// configuration are both fixed for the runtime's lifetime, so caching at W
// creation is sound.
func (rt *Runtime) newW(slot *worker, st *stack.Stack) *W {
	w := &W{
		rt:        rt,
		slot:      slot,
		stack:     st,
		strategy:  rt.cfg.Strategy,
		wantsFork: rt.trc.Wants(trace.KindFork),
	}
	if w.strategy == StrategyCilkPlus || w.strategy == StrategyTBB {
		w.spawn = &spawnState{}
	}
	return w
}

// AddressSpace exposes the simulated address space for inspection.
func (rt *Runtime) AddressSpace() *vm.AddressSpace { return rt.as }

// Run executes root to completion and returns the runtime's accumulated
// statistics — the one-shot batch entry point, now a thin wrapper over the
// serving lifecycle: Start (if the runtime is idle) + Submit + Wait +
// Close, one code path with Submit. Run may be called repeatedly; counters
// accumulate across calls on the same Runtime. Called on a runtime the
// caller already Started, Run leaves the workers up (it only Closes what
// it Started). A panic that escaped the root is re-raised as a *TaskPanic
// after the orderly shutdown.
func (rt *Runtime) Run(root func(*W)) Stats {
	stats, err := rt.RunErr(root)
	if err != nil {
		var tp *TaskPanic
		if errors.As(err, &tp) {
			panic(tp) // the root task panicked: surface it from Run
		}
		panic(err) // closed/drained: Run's caller raced admission or Close
	}
	return stats
}

// RunErr executes root like Run but returns a panic that escaped the root
// task as an error instead of re-panicking — for callers that treat a
// failed computation as a value. For the long-lived-server shape — many
// concurrent computations on one worker pool, each failing independently —
// use Start/Submit and check Job.Err per submission; RunErr is the
// single-root convenience over exactly that path. The returned error is
// the *TaskPanic Run would have thrown (errors.As-compatible with the
// panic value it wraps); the accompanying Stats snapshot is valid either
// way, taken after the run's orderly shutdown. Panics from the runtime
// itself (stack overflow, pool misuse) still propagate out of the worker
// machinery.
func (rt *Runtime) RunErr(root func(*W)) (Stats, error) {
	started := rt.ensureStarted()
	j := rt.Submit(root)
	err := j.Err()
	j.Release()
	if started {
		rt.Close(context.Background())
	}
	return rt.Stats(), err
}

// Idle protocol, a ski-rental rule: a thief whose sweep fails keeps
// searching — sweep, Gosched, sweep — until it has been idle for about as
// long as waking it from the park lot would cost, and only then parks.
// Parking sooner makes every fan-out pay a wake-up it could have skipped;
// searching longer than a wake-up costs burns more than the sleep saves.
//
// searchBudget is that cost as the benchmark's traced run measured it on the
// runtime that parked after ten sweeps (2 vCPUs). A Fork's wake was
// core.steal.fork_to_remote_start_ns, 79–90 µs: the Go scheduler put the
// woken thief in the forking P's runnext slot, the owner kept running on
// that P, and an idle P takes a runnext goroutine only on its last steal
// try, after a usleep(3) that Linux's default 50 µs timer slack stretches.
// A Submit's wake was core.dispatch.idle_wake_ns, 7–13 µs: the submitter
// then blocks in Err and hands its own P to the woken thief. The budget
// covers the dearer of the two. Fan-out throughput is flat from a quarter to
// four times this value (EXPERIMENTS.md "Idle protocol"). A Fork now yields
// its P to the thief it woke (Runtime.handOff), which makes its wake about
// as cheap as a Submit's; the budget was not re-derived (EXPERIMENTS.md
// "Hand-off after a wake").
//
// The clock is read only every searchClockStride-th failed sweep, so an
// idle gap that ends within the first few yields — the closed-loop serving
// path, where the next job arrives on the first — never pays a time.Now,
// and a whole search phase reads it a few dozen times.
const (
	searchBudget      = 100 * time.Microsecond
	searchClockStride = 16
)

// thiefLoop is the body of every worker goroutine: for the slot it starts
// with, then each one delivered to its hand-off (nil means exit), take a
// stack from the pool — blocking if a bounded pool is exhausted, the Cilk
// Plus stall — and occupy the slot until it leaves it. Then it is listed on
// the park lot, keeping its W and its grown Go stack, or — the runtime
// closing — listed nowhere, and its wait returns nil at once.
func (rt *Runtime) thiefLoop(slot *worker) {
	defer rt.park.live.Done()
	var w *W
	for ; slot != nil; slot = w.wait() {
		st := rt.takeStack(slot)
		if st == nil {
			rt.park.nidle.Add(-1)
			return // pool closed: the computation is over
		}
		if w == nil {
			w = rt.newW(slot, st)
		} else {
			// Its per-fork counters were folded into its last slot after
			// its last task.
			w.slot, w.stack = slot, st
			w.depth, w.frame = 0, nil
		}
		rt.occupy(w)
	}
}

// occupy steals and runs tasks on w's slot until w leaves it — the runtime
// closes, the slot is handed to a resumed parent (childDone lists w), or w
// parks (it lists itself) — with the stack back in the pool in every case. A
// sweep looks for stolen work first and for a submitted root only when the
// whole steal sweep fails, so new roots open only on genuinely idle
// capacity. Failed sweeps search for searchBudget and then park: a serving
// runtime between requests is P free slots and P listed goroutines. An empty
// sweep costs the rest of the system nothing but shared reads (Deque.Len per
// victim, then the ready list's one counter), and the Gosched between sweeps
// runs every goroutine sharing this P first. The slot counts as idle
// (parkLot.nidle) whenever the loop is not inside runStolen, which is what
// makes every Fork publish its children rather than keep them private.
func (rt *Runtime) occupy(w *W) {
	fails := 0
	var idleSince time.Time // zero until the search phase first reads the clock
	for !rt.park.closed.Load() {
		t, ok := rt.steal(w, countStolen)
		if !ok {
			t, ok = rt.nextRoot()
		}
		if !ok {
			fails++
			if fails%searchClockStride != 0 {
				runtime.Gosched()
				continue
			}
			if idleSince.IsZero() {
				idleSince = time.Now()
			}
			if time.Since(idleSince) < searchBudget {
				runtime.Gosched()
				continue
			}
			// Searched for as long as a wake-up costs: give the stack and
			// the slot back, list w and peek (no lost wakeup: parkLot).
			rt.pool.Put(w.slot.id, w.stack)
			rt.park.park(w, &w.slot.thiefParks, rt.hasWork)
			return
		}
		fails, idleSince = 0, time.Time{}
		rt.park.nidle.Add(-1)
		if w.runStolen(t) {
			return
		}
		rt.park.nidle.Add(1)
		if t.frame == nil {
			// A root completed: Job.finish readied its waiter into this
			// P's runnext slot. Yield, now that the slot counts idle, so
			// the waiter returns before this goroutine sweeps for more.
			runtime.Gosched()
		}
	}
	rt.park.nidle.Add(-1)
	rt.pool.Put(w.slot.id, w.stack)
}

// steal attempts one round of stealing over the other worker slots: the
// paper's random_steal (Listing 3), a round-robin sweep from a uniformly
// random start — the rule the Tp ≤ T1/P + c∞·T∞ bound is proved for. A
// thief never probes its own deque, skips deques whose public part is
// visibly empty (Len; what a victim holds privately it publishes at its next
// deque operation, which is when a sweep can first see it), and charges the
// probe count to its slot's stealAttempts once per sweep instead of once per
// victim. take runs on the claimed candidate inside the victim's deque lock
// and must count an accepted child on its frame: a base-level thief passes
// countStolen itself, the depth-restricted join its eligibility test in
// front of it. It returns false after a full unsuccessful sweep so callers
// can decide to back off or re-check their join condition.
func (rt *Runtime) steal(w *W, take func(task) bool) (task, bool) {
	self := w.slot.id
	n := len(rt.workers)
	probes := int64(0)
	// Steal latency: how long the winning sweep took from entry to
	// acquisition. The clock reads exist only when a sink consumes steal
	// events, so the disabled path stays untimed.
	var sweepStart time.Time
	if rt.trc.Wants(trace.KindSteal) {
		sweepStart = time.Now()
	}
	start := int(w.slot.rng.next() % uint64(n))
	for i := 0; i < n; i++ {
		victim := rt.workers[(start+i)%n]
		if victim.id == self || victim.deque.Len() == 0 {
			continue
		}
		probes++
		t, ok := victim.deque.StealIf(take)
		if !ok {
			continue
		}
		w.slot.stealAttempts.Add(probes)
		w.slot.steals.Add(1)
		var lat time.Duration
		if !sweepStart.IsZero() {
			lat = time.Since(sweepStart)
		}
		rt.trc.Emit(self, trace.KindSteal, int64(victim.id), lat)
		return t, true
	}
	// Full sweep failed. A sweep that probed nothing (every victim visibly
	// empty, the common case while searching) writes no shared counter.
	if probes != 0 {
		w.slot.stealAttempts.Add(probes)
	}
	return task{}, false
}

// pressure applies the soft RSS ceiling: while simulated RSS is over
// Config.MaxResidentPages it reclaims the resident residue of free pooled
// stacks, stopping as soon as RSS drops under the ceiling. Called before a
// worker maps fresh stack pages and on the suspend path, so sustained
// pressure degrades throughput gracefully instead of growing RSS.
func (rt *Runtime) pressure(slot *worker) {
	ceiling := rt.cfg.MaxResidentPages
	if ceiling <= 0 || rt.as.RSSPages() <= ceiling {
		return
	}
	slot.ceilingHits.Add(1)
	calls, pages := rt.pool.ReclaimFree(func() bool {
		return rt.as.RSSPages() <= ceiling
	})
	slot.poolReclaims.Add(calls)
	slot.reclaimedPages.Add(pages)
	rt.trc.Emit(slot.id, trace.KindReclaim, pages, 0)
}

// takeStack takes a stack from the pool for the given worker slot,
// applying the RSS-ceiling pressure valve first so that — when over the
// ceiling — free stacks' residue is reclaimed before fresh pages are
// mapped. Returns nil when the pool has been closed; a map failure in the
// simulated address space is a programming error and panics.
func (rt *Runtime) takeStack(slot *worker) *stack.Stack {
	rt.pressure(slot)
	s, err := rt.pool.Take(slot.id)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return s
}
