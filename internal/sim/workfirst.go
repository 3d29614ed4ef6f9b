// Work-first (continuation-stealing) engine — the discipline the paper's
// Fibril actually implements (§2, §4.3), as opposed to the help-first
// child-stealing engine in engine.go that mirrors the Go runtime's
// substitution.
//
// In work-first stealing:
//
//   - a fork pushes the PARENT'S CONTINUATION on the deque and the worker
//     descends into the child;
//   - a thief steals the oldest continuation — always the victim context's
//     bottom record, because steals remove continuations oldest-first —
//     and resumes the parent on its own stack while the parent's frame
//     stays put (the cactus stack: a context's records span stacks);
//   - when a worker finishes a fork child it pops its own deque: success
//     means the parent was never stolen (continue inline, the fast path);
//     an emptied context means this strand was severed — Listing 3's
//     schedule(): decrement the frame's strand count, and if strands
//     remain and we own the frame's stack, UNMAP the pages above the
//     frame and abandon the stack to it (the victim-side unmap);
//   - a join with outstanding strands suspends its context; the joiner is
//     usually a thief whose own stack holds none of the frame's pages, so
//     it keeps stealing without an unmap — why Table 2's unmaps < steals;
//   - the last strand to finish resumes the parked context on the frame's
//     home stack (remapped in the mmap ablation).
//
// Useful invariants (asserted below): steal order guarantees that a
// context is a single record when it suspends, and that a fork child with
// records below it always finds its parent's continuation in its own
// worker's deque.
package sim

import (
	"fmt"

	"fibril/internal/core"
	"fibril/internal/invoke"
	"fibril/internal/stack"
)

// wfFrame is the work-first fibril_t: it counts severed strands (the
// paper's count, kept as outstanding-children-of-steals).
type wfFrame struct {
	outstanding int        // severed strands still running
	suspended   bool       // a context is parked at this frame's join
	parked      *wfContext // the parked context
	depth       int32
	parent      *wfFrame
	home        *stack.Stack // stack holding the frame itself
	homeMark    int          // watermark of home at the frame's top
}

func (f *wfFrame) isDescendantOf(a *wfFrame) bool {
	for cur := f; cur != nil; cur = cur.parent {
		if cur == a {
			return true
		}
	}
	return false
}

// wfRecord is one activation record.
type wfRecord struct {
	task  invoke.Task
	seg   int
	sub   int
	depth int32

	frame  *wfFrame // the task's own frame
	notify *wfFrame // frame of the task that forked us (nil for calls/roots)

	viaFork bool // created by a fork

	// boundary marks a record whose completion ends a strand: the bottom
	// of every context (and, after inline adoption, the bottom of an
	// adopted group mid-context). boundTarget is the frame to notify —
	// nil only for the root strand, whose end is the whole computation's.
	boundary    bool
	boundTarget *wfFrame

	stk  *stack.Stack // stack holding this record's frame
	base int
}

// wfContext is an execution context: records (possibly spanning stacks)
// plus the current allocation stack. A context's records form call-chain
// segments: below any incomplete fork child sits its forking parent (whose
// continuation is live in a deque) — so a steal of that continuation takes
// the parent AND its call-ancestor prefix, down to the previous boundary.
type wfContext struct {
	recs       []*wfRecord
	cur        *stack.Stack // allocation stack; nil while parked
	lastFaults int64
	// pinned marks a context that has inline-adopted foreign work on top
	// of its stack (the leapfrog blocked join). Its continuations are no
	// longer stealable by other workers: the inline work's frames live
	// above a blocked frame on this very stack and must unwind strictly
	// nested — migration would fragment the stack. The owner still pops
	// its own continuations normally. Pinning is sound for leapfrogging
	// because an adopted frame must be a DESCENDANT of the blocked join,
	// so no context can ever bury (or transitively pin away) a strand its
	// own join awaits; for plain depth-restricted (TBB) stealing the same
	// construction admits cross-worker wait cycles, which is why the
	// work-first TBB join spins instead (see blockJoin).
	pinned bool
}

// wfCont is a deque entry: a continuation reference.
type wfCont struct {
	ctx   *wfContext
	rec   *wfRecord
	frame *wfFrame
	depth int32
}

// wfWorker is one work-first worker: its slot, the context it runs (nil
// while it thieves) and its deque of continuations.
type wfWorker struct {
	*slot
	ctx *wfContext
	dq  deque[*wfCont]
}

// stealable is the work-first thief's eligibility: a pinned context's
// continuations are not, since its inline-stacked work must unwind in place.
func stealable(c *wfCont) bool { return !c.ctx.pinned }

// wfDebugAdopt, when non-nil, observes every adoption (tests only).
var wfDebugAdopt func(into *wfContext, rec *wfRecord, prefix []*wfRecord)

// wfSim is the work-first engine, sharing the base simulator's config,
// address space, pool, event queue, and counters.
type wfSim struct {
	*sim
	workers []wfWorker
	// curOwner maps each stack to the context currently allocating on it.
	// A stack may be retired to the pool only when it holds no frames AND
	// no context owns it as its allocation target — a context can own a
	// stack with zero bytes on it (its frames live on earlier stacks).
	curOwner map[*stack.Stack]*wfContext
}

// assignCur transfers the context's allocation stack.
func (ws *wfSim) assignCur(ctx *wfContext, stk *stack.Stack) {
	if ctx.cur != nil {
		delete(ws.curOwner, ctx.cur)
	}
	ctx.cur = stk
	if stk != nil {
		ws.curOwner[stk] = ctx
		ctx.lastFaults = stk.Faults()
	}
}

// dropCur detaches the context's allocation stack, retiring it to the pool
// if it holds no frames; otherwise it stays orphaned, pinned by the frames
// of records now living in other contexts, and is retired by whoever pops
// its last frame.
func (ws *wfSim) dropCur(now int64, ctx *wfContext) {
	stk := ctx.cur
	ws.assignCur(ctx, nil)
	if stk != nil && stk.Bytes() == 0 {
		ws.retireStack(now, stk)
	}
}

func (s *sim) runWorkFirst(tree invoke.Task) Result {
	ws := &wfSim{sim: s, workers: make([]wfWorker, len(s.slots)),
		curOwner: map[*stack.Stack]*wfContext{}}
	for i := range ws.workers {
		ws.workers[i].slot = &s.slots[i]
	}
	ctx := &wfContext{}
	ws.assignCur(ctx, s.takeStack())
	ws.workers[0].ctx = ctx
	root := ws.pushWF(ctx, tree, nil, nil, 0, false)
	root.boundary = true // the root strand; boundTarget nil = computation end
	return s.drive(ws.step, "sim(work-first)")
}

func (ws *wfSim) step(wid int, now int64) {
	w := &ws.workers[wid]
	if w.ctx == nil {
		ws.thieve(w, now)
		return
	}
	ws.advance(w, now)
}

// pushWF begins a task on the context's current stack.
func (ws *wfSim) pushWF(ctx *wfContext, t invoke.Task,
	notify, parent *wfFrame, depth int32, viaFork bool) *wfRecord {
	base := ws.begin(ctx.cur, t)
	r := &wfRecord{
		task: t, depth: depth, notify: notify, viaFork: viaFork,
		stk: ctx.cur, base: base,
		frame: &wfFrame{depth: depth, parent: parent,
			home: ctx.cur, homeMark: base + t.Frame},
	}
	ctx.recs = append(ctx.recs, r)
	return r
}

// advance interprets the worker's context.
func (ws *wfSim) advance(w *wfWorker, now int64) {
	for {
		ctx := w.ctx
		r := ctx.recs[len(ctx.recs)-1]
		if r.seg >= len(r.task.Segs) {
			if r.frame.outstanding > 0 {
				if !ws.blockJoin(w, now, ctx, r) {
					return
				}
				continue
			}
			if !ws.complete(w, now, ctx, r) {
				return
			}
			continue
		}
		seg := &r.task.Segs[r.seg]
		switch r.sub {
		case 0:
			r.sub = 1
			dur := seg.Work + w.over + ws.faultCost(ctx.cur, &ctx.lastFaults)
			w.over = 0
			if dur > 0 {
				ws.schedule(now+dur, w.id)
				return
			}
		case 1: // synchronous call: same strand, new record
			r.sub = 2
			if seg.Call != nil {
				child := seg.Call()
				w.over += ws.cfg.Cost.TaskStart
				ws.pushWF(ctx, child, nil, r.frame, r.depth+1, false)
				continue
			}
		case 2: // fork: expose OUR continuation, descend into the child
			r.sub = 3
			if seg.Fork != nil {
				child := seg.Fork()
				ws.res.Forks++
				w.over += ws.cfg.Cost.forkCost(ws.cfg.Strategy)
				w.dq.push(&wfCont{ctx: ctx, rec: r, frame: r.frame, depth: r.depth})
				ws.pushWF(ctx, child, r.frame, r.frame, r.depth+1, true)
				continue
			}
		case 3:
			if seg.Join && r.frame.outstanding > 0 {
				if !ws.blockJoin(w, now, ctx, r) {
					return
				}
				continue
			}
			r.seg++
			r.sub = 0
		}
	}
}

// complete retires the context's finished top record. True = keep
// advancing on w.ctx (which may have changed); false = event scheduled.
func (ws *wfSim) complete(w *wfWorker, now int64, ctx *wfContext, r *wfRecord) bool {
	if r.stk.Bytes() < r.base {
		// A frame below live frames was popped earlier: the strict nesting
		// that pinning enforces has been violated somewhere.
		panic(fmt.Sprintf("sim(work-first): pop inversion: %s@%d base %d on stack %d with top %d",
			r.task.Name, r.depth, r.base, r.stk.ID(), r.stk.Bytes()))
	}
	r.stk.Pop(r.base)
	if r.stk != ctx.cur && r.stk.Bytes() == 0 && ws.curOwner[r.stk] == nil {
		// The record's frame was the last occupant of an abandoned stack
		// that no context allocates on: it can rejoin the pool.
		ws.retireStack(now, r.stk)
	}
	ctx.recs = ctx.recs[:len(ctx.recs)-1]

	if r.boundary {
		// A strand ends here.
		if r.boundTarget == nil {
			// The root strand: computation complete.
			if len(ctx.recs) == 0 {
				ws.dropCur(now, ctx)
				w.ctx = nil
			}
			ws.done = true
			ws.makespan = now
			return false
		}
		if len(ctx.recs) > 0 {
			// Inline-adopted strand (TBB/leapfrog) finished on top of our
			// records: those strategies never suspend, so just decrement.
			ws.inlineStrandEnd(r.boundTarget)
			return true
		}
		return ws.strandEndAsWorker(w, now, ctx, r.boundTarget)
	}

	if len(ctx.recs) == 0 {
		panic("sim(work-first): non-boundary record at context bottom")
	}
	if !r.viaFork {
		return true // plain call return: the caller below continues
	}
	// Fork-child return: the parent's continuation must be ours to pop
	// (if it had been stolen, the parent would not be below us).
	c, ok := w.dq.pop()
	if !ok || c.rec != ctx.recs[len(ctx.recs)-1] || c.ctx != ctx {
		panic("sim(work-first): continuation LIFO invariant violated")
	}
	return true
}

// inlineStrandEnd handles an adopted record's completion under the
// never-suspending strategies.
func (ws *wfSim) inlineStrandEnd(f *wfFrame) {
	f.outstanding--
	if f.outstanding == 0 && f.suspended {
		panic("sim(work-first): inline strand end hit a suspended frame")
	}
}

// strandEndAsWorker is Listing 3's schedule() on the worker whose context
// just emptied. Returns false (an event is always scheduled).
func (ws *wfSim) strandEndAsWorker(w *wfWorker, now int64, ctx *wfContext, f *wfFrame) bool {
	f.outstanding--
	if f.outstanding == 0 && f.suspended {
		// Resume the parked context (Listing 3 lines 68–75).
		f.suspended = false
		parked := f.parked
		f.parked = nil
		ws.res.Resumes++
		cost := ws.cfg.Cost.Resume
		switching := ctx.cur != f.home
		ws.dropCur(now, ctx)
		if switching {
			cost += ws.remap(now+cost, f.home)
		}
		ws.assignCur(parked, f.home)
		w.ctx = parked
		ws.schedule(now+cost, w.id)
		return false
	}
	// Strands remain. If the frame lives on our stack, return its unused
	// pages and abandon the stack to the frame (lines 62–64); otherwise
	// our stack is empty and reusable.
	cost := int64(0)
	if ctx.cur == f.home {
		cost += ws.unmap(now, ctx.cur)
	}
	ws.dropCur(now, ctx)
	w.ctx = nil
	ws.schedule(now+cost, w.id)
	return false
}

// retireStack returns a stack to the pool; it must hold no live frames.
func (ws *wfSim) retireStack(now int64, stk *stack.Stack) {
	if stk == nil {
		return
	}
	if stk.Bytes() != 0 {
		panic(fmt.Sprintf("sim(work-first): retiring stack %d with %d live bytes",
			stk.ID(), stk.Bytes()))
	}
	// An abandoned stack can reach here with its pages still dummy-mapped:
	// its frames were popped by other contexts, so the resume-time remap
	// never ran. Remap before pooling — reusing a dummy-mapped stack would
	// read the dummy file instead of stack memory. (Watermark is zero here,
	// so RemapAbove covers the whole stack.)
	if ws.cfg.Strategy == StrategyFibrilMMap && stk.HasDummyPages() {
		ws.remap(now, stk)
	}
	ws.releaseStack(now, stk)
}

// blockJoin handles a join with outstanding strands.
func (ws *wfSim) blockJoin(w *wfWorker, now int64, ctx *wfContext, r *wfRecord) bool {
	f := r.frame
	if f.outstanding == 0 {
		return true
	}
	switch ws.cfg.Strategy {
	case core.StrategyTBB:
		// Under work-first there is no sound way for a depth-restricted
		// blocked joiner to help inline: continuations are not
		// self-contained subtrees, so stacking them above the blocked
		// frame either fragments stacks (if they migrate) or — with the
		// strict-nesting pinning leapfrog uses — creates cross-worker
		// wait cycles that the depth-ordering argument no longer
		// excludes. The joiner therefore waits while base thieves make
		// progress: Sukha's lost utilization, measured directly.
		ws.schedule(now+ws.cfg.Cost.StealProbe*int64(ws.cfg.Workers), w.id)
		return false
	case StrategyLeapfrog:
		return ws.inlineSteal(w, now, ctx, func(c *wfCont) bool {
			return stealable(c) && c.frame.isDescendantOf(f)
		})
	default:
		// Suspend. The joining record must be the context's top; records
		// below it (if any) are its call-ancestor glue.
		f.suspended = true
		f.parked = ctx
		ws.res.Suspends++
		cost := ws.cfg.Cost.Suspend
		if ctx.cur == f.home {
			// Second-phase joins of a resumed frame suspend on the
			// frame's own stack: victim-style unmap and abandon.
			cost += ws.unmap(now+cost, ctx.cur)
		} else {
			// Thief-side join: our stack holds nothing of f.
			ws.retireStack(now, ctx.cur)
		}
		ctx.cur = nil
		w.ctx = nil
		ws.schedule(now+cost, w.id)
		return false
	}
}

// inlineSteal is the TBB/leapfrog blocked join: adopt an eligible
// continuation on top of the CURRENT stack.
func (ws *wfSim) inlineSteal(w *wfWorker, now int64, ctx *wfContext, eligible func(*wfCont) bool) bool {
	cost, c, ok := ws.steal(w, eligible)
	if !ok {
		ws.schedule(now+cost, w.id)
		return false
	}
	w.over += cost + ws.cfg.Cost.TaskStart
	ws.adopt(ctx, c)
	ctx.pinned = true
	return true
}

// steal is the skeleton's sweep over the work-first deques.
func (ws *wfSim) steal(w *wfWorker, eligible func(*wfCont) bool) (int64, *wfCont, bool) {
	return stealSweep(ws.sim, w.slot, func(v int) *deque[*wfCont] { return &ws.workers[v].dq }, eligible)
}

// adopt splits the victim context at the stolen record: the adopter takes
// the stolen record together with its call-ancestor glue down to the
// record's strand boundary (those callers belong to the stolen strand —
// the continuation eventually returns into them). The victim keeps
// everything below the boundary (blocked lower groups, in inline-stacked
// contexts) and everything above the stolen record — the fork child
// subtree, which becomes a severed strand of the stolen frame.
//
// Live continuations always belong to the context's TOP group: lower
// groups are call-glue plus joins that resolved their forks before
// blocking. So the extracted slice is the top group's lower part.
func (ws *wfSim) adopt(into *wfContext, c *wfCont) {
	victim := c.ctx
	rec := c.rec
	idx := -1
	for i := len(victim.recs) - 1; i >= 0; i-- {
		if victim.recs[i] == rec {
			idx = i
			break
		}
	}
	if idx < 0 || idx == len(victim.recs)-1 {
		panic(fmt.Sprintf("sim(work-first): stolen continuation %s@%d at index %d of %d victim records",
			rec.task.Name, rec.depth, idx, len(victim.recs)))
	}
	// Walk down to the strand boundary that starts rec's group.
	b := idx
	for b > 0 && !victim.recs[b].boundary {
		b--
	}
	if !victim.recs[b].boundary {
		panic("sim(work-first): context bottom is not a strand boundary")
	}
	prefix := make([]*wfRecord, idx+1-b)
	copy(prefix, victim.recs[b:idx+1])
	rest := append(victim.recs[:b], victim.recs[idx+1:]...)
	victim.recs = rest
	// The fork child (now at position b) heads a severed strand whose
	// completion must notify the stolen frame.
	nb := victim.recs[b]
	nb.boundary = true
	nb.boundTarget = rec.frame
	rec.frame.outstanding++
	if wfDebugAdopt != nil {
		wfDebugAdopt(into, rec, prefix)
	}
	// The resumed parent allocates on the adopter's stack from here on;
	// its frame stays on its home stack — a cactus branch.
	into.recs = append(into.recs, prefix...)
}

// thieve is an idle worker's turn: past the skeleton's prelude, steal a
// continuation and adopt it as a fresh context.
func (ws *wfSim) thieve(w *wfWorker, now int64) {
	if !ws.idle(w.slot) {
		return
	}
	cost, c, ok := ws.steal(w, stealable)
	if !ok {
		ws.schedule(now+cost, w.id)
		return
	}
	ctx := &wfContext{}
	ws.assignCur(ctx, ws.takeStack())
	w.over += ws.cfg.Cost.TaskStart
	if ws.cfg.Strategy == StrategyCilkM {
		// Cilk-M maps the stolen frame's stack prefix into the thief's
		// TLMM region: a per-steal cost linear in the prefix pages — the
		// trade the paper's §3 contrasts with Fibril's O(1) steal.
		pages := int64(c.rec.frame.homeMark+4095) / 4096
		w.over += ws.cfg.Cost.TLMMBase + pages*ws.cfg.Cost.TLMMPerPage
	}
	ws.adopt(ctx, c)
	w.ctx = ctx
	ws.schedule(now+cost, w.id)
}
