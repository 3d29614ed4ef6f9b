package core

import (
	"sync"

	"fibril/internal/stack"
	"fibril/internal/trace"
)

// This file implements the coalesced-unmap / RSS-ceiling half of the
// memory-pressure engine. With Config.UnmapBatch > 1 a Fibril suspend no
// longer madvises its stack eagerly (Listing 3 line 63); it posts a
// reclaimTicket — "pages [watermark, cleanFrom) of this stack are
// reclaimable" — on its worker's reclaim list. Tickets are resolved in one
// of two ways:
//
//   - the frame resumes first: childDone CANCELS the ticket before waking
//     the owner, and the madvise (plus the refaults re-touching those
//     pages would have cost) never happens — the common case for
//     short-lived suspensions, and where the batching wins;
//   - the list reaches UnmapBatch tickets (or the RSS ceiling forces a
//     drain, or the run ends): the tickets are FLUSHED, each live one
//     issuing its deferred madvise.
//
// A per-ticket mutex makes cancel and flush mutually exclusive, and
// childDone cancels strictly before it sends the resume signal, so a
// flush can never madvise a stack whose owner is running again.
//
// The space envelope survives the deferred timing: a stack's resident
// pages never exceed its own high-water mark, so MaxRSS stays within
// StacksCreated × (D+1)(S1p+1) pages no matter how long a flush is
// delayed — the oracle checked in internal/check is unchanged.

// reclaimTicket is one suspended stack's deferred unmap: the pages in
// [from, cleanFrom) of s may be returned to the OS while the ticket is
// live. Exactly one of cancel (the resume won) or a flush (the batch won)
// resolves it.
type reclaimTicket struct {
	mu   sync.Mutex
	done bool
	s    *stack.Stack
	from int // page watermark captured at suspension
}

// cancel marks the ticket dead, reporting whether it was still live (the
// caller counts it as a saved madvise). It blocks while a flush holds the
// ticket, so on return no madvise of the stack is in flight.
func (t *reclaimTicket) cancel() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// reclaimList is one worker slot's pending tickets. Its lock is taken only
// on the suspend path and by drains — never on fork/steal hot paths.
type reclaimList struct {
	mu      sync.Mutex
	pending []*reclaimTicket
}

// reclaimer owns the per-worker reclaim lists and the RSS-ceiling policy.
type reclaimer struct {
	rt      *Runtime
	batch   int   // Config.UnmapBatch
	ceiling int64 // Config.MaxResidentPages; 0 = no ceiling
	lists   []reclaimList
}

func newReclaimer(rt *Runtime) *reclaimer {
	return &reclaimer{
		rt:      rt,
		batch:   rt.cfg.UnmapBatch,
		ceiling: rt.cfg.MaxResidentPages,
		lists:   make([]reclaimList, rt.cfg.Workers),
	}
}

// batched reports whether suspends defer their unmaps (UnmapBatch > 1);
// otherwise the eager per-suspend behaviour is kept bit-for-bit.
func (r *reclaimer) batched() bool { return r.batch > 1 }

// enqueue posts a ticket on the slot's list, flushing the list if it
// reached the batch size. The ticket may already be cancelled (its frame
// resumed while the suspend path was still publishing it); it is appended
// anyway and skipped at flush time, having been counted by the cancel.
func (r *reclaimer) enqueue(slot int, sh *counterShard, t *reclaimTicket) {
	l := &r.lists[slot]
	l.mu.Lock()
	l.pending = append(l.pending, t)
	var batch []*reclaimTicket
	if len(l.pending) >= r.batch {
		batch = l.pending
		l.pending = nil
	}
	l.mu.Unlock()
	if batch != nil {
		r.flush(slot, sh, batch)
	}
}

// flush resolves a batch of tickets, issuing the deferred madvise for each
// one still live. Tickets the resume already cancelled cost nothing and
// count nothing (the cancel counted them); live tickets whose range turns
// out clean (defensive — the hysteresis gate should have skipped them at
// suspend time) count as skips so the suspend conservation equality
// Suspends == Unmaps + ReclaimCancels + ReclaimSkips stays exact.
func (r *reclaimer) flush(slot int, sh *counterShard, batch []*reclaimTicket) {
	flushed := 0
	for _, t := range batch {
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			continue
		}
		freed, called := t.s.UnmapFrom(t.from)
		t.done = true
		t.mu.Unlock()
		if called {
			flushed++
			sh.unmaps.Add(1)
			sh.unmappedPages.Add(int64(freed))
			r.rt.trc.Emit(slot, trace.KindUnmap, int64(freed), 0)
		} else {
			sh.reclaimSkips.Add(1)
		}
	}
	if flushed > 0 {
		sh.unmapBatches.Add(1)
		r.rt.trc.Emit(slot, trace.KindUnmapBatch, int64(flushed), 0)
	}
}

// drainAll flushes every list — the ceiling's first resort, and the
// end-of-run cleanup that leaves no ticket pending.
func (r *reclaimer) drainAll(slot int, sh *counterShard) {
	for i := range r.lists {
		l := &r.lists[i]
		l.mu.Lock()
		batch := l.pending
		l.pending = nil
		l.mu.Unlock()
		if len(batch) > 0 {
			r.flush(slot, sh, batch)
		}
	}
}

// pressure applies the soft RSS ceiling: when simulated RSS is over
// Config.MaxResidentPages, first drain the deferred-unmap queue (pages
// already promised back to the OS), then — if still over — reclaim the
// resident residue of free pooled stacks, stopping as soon as RSS drops
// under the ceiling. Called before a worker maps fresh stack pages and on
// the suspend path, so sustained pressure degrades throughput gracefully
// instead of growing RSS.
func (r *reclaimer) pressure(slot int, sh *counterShard) {
	if r.ceiling <= 0 || r.rt.as.RSSPages() <= r.ceiling {
		return
	}
	sh.ceilingHits.Add(1)
	r.drainAll(slot, sh)
	if r.rt.as.RSSPages() > r.ceiling {
		calls, pages := r.rt.pool.ReclaimFree(func() bool {
			return r.rt.as.RSSPages() <= r.ceiling
		})
		sh.poolReclaims.Add(calls)
		sh.reclaimedPages.Add(pages)
		r.rt.trc.Emit(slot, trace.KindReclaim, pages, 0)
	}
}

// pendingCount returns the number of live tickets across all lists. Zero
// at quiescence: the end-of-run drain resolves everything.
func (r *reclaimer) pendingCount() int {
	n := 0
	for i := range r.lists {
		l := &r.lists[i]
		l.mu.Lock()
		for _, t := range l.pending {
			t.mu.Lock()
			if !t.done {
				n++
			}
			t.mu.Unlock()
		}
		l.mu.Unlock()
	}
	return n
}
