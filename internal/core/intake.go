package core

import (
	"sync"
	"sync/atomic"
)

// This file is the root-intake layer of the serving lifecycle: the one
// queue of admitted roots awaiting a worker. Roots are kept out of the
// deques: they are new computations that must not perturb the steal
// counters or the trace-reconciliation laws — and thieves take roots only
// after a full steal sweep fails, so in-flight computations keep their
// workers until there is genuinely idle capacity.

// intake is the root queue, FIFO in admission order. Producers
// (submitters) are lock-free: push links the Job into a Treiber-style LIFO
// inbox with one CAS, using the Job's intrusive qnext field — no
// allocation, no lock. Consumers (thieves) are serialized by cmu: a pop
// adopts the whole inbox with one atomic Swap, reverses it into the FIFO
// out list, and serves from that — the classic MPSC inbox-reversal queue,
// multi-consumer-safe because the consumer side is the locked side. The
// order is exact: the out list is consumed before a newer inbox batch is
// adopted, and a reversed LIFO batch is oldest-first.
type intake struct {
	inbox atomic.Pointer[Job] // lock-free producer side (LIFO)
	n     atomic.Int64        // visible roots (inbox + out)

	cmu  sync.Mutex // consumer side: adopt/reverse/pop
	head *Job       // FIFO out list, oldest first; guarded by cmu
}

// push publishes j. Callers wake the park lot afterwards, mirroring Fork's
// publish-then-wake Dekker pair, so a parked thief cannot miss the root.
func (q *intake) push(j *Job) {
	q.n.Add(1)
	for {
		h := q.inbox.Load()
		j.qnext = h
		if q.inbox.CompareAndSwap(h, j) {
			return
		}
	}
}

// pop removes the oldest root. The n.Load fast path keeps the empty case
// (every failed steal sweep ends here) at one atomic read of a line that
// is clean while nobody submits.
func (q *intake) pop() (*Job, bool) {
	if q.n.Load() <= 0 {
		return nil, false
	}
	q.cmu.Lock()
	if q.head == nil {
		// Out list dry: adopt the inbox in one Swap and reverse the LIFO
		// batch into FIFO order. Everything in the inbox is newer than
		// anything the out list held, so draining out-first keeps FIFO.
		var rev *Job
		for in := q.inbox.Swap(nil); in != nil; {
			next := in.qnext
			in.qnext = rev
			rev = in
			in = next
		}
		q.head = rev
	}
	j := q.head
	if j == nil {
		q.cmu.Unlock()
		return nil, false // another pop took it, or its push counted it before linking it
	}
	q.head = j.qnext
	j.qnext = nil
	q.n.Add(-1)
	q.cmu.Unlock()
	return j, true
}

// len is the number of admitted roots not yet taken (racy snapshot).
func (q *intake) len() int { return int(q.n.Load()) }
