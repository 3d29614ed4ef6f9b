package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"fibril/internal/cacheline"
)

// This file is the root-intake layer of the serving lifecycle: the queue
// of admitted roots awaiting a worker, and the Job recycling pool. Roots
// are kept out of the deques: they are new computations that must not
// perturb the steal counters or the trace-reconciliation laws — and
// thieves take roots only after a full steal sweep fails, so in-flight
// computations keep their workers until there is genuinely idle capacity.

// intakeHash spreads submission ids over n shards. Fibonacci hashing on
// the id: consecutive ids land on well-spread shards, so concurrent
// submitters do not convoy on one shard even though ids are sequential.
func intakeHash(id uint64, n int) int {
	return int((id * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}

// jobFreeCap bounds one shard's free list so a submission burst cannot
// hoard an unbounded Job graveyard.
const jobFreeCap = 256

// intakeShard is one lane of the sharded intake. Producers (submitters)
// are lock-free: push links the Job into a Treiber-style LIFO inbox with
// one CAS, using the Job's intrusive qnext field — no allocation, no
// lock, no line beyond the shard's own. Consumers (thieves) are
// serialized per shard by cmu: a pop adopts the whole inbox with one
// atomic Swap, reverses it into the FIFO out list, and serves from that —
// the classic MPSC inbox-reversal queue, multi-consumer-safe because the
// consumer side is the locked side. FIFO order per shard is exact: the
// out list is consumed before a newer inbox batch is adopted, and a
// reversed LIFO batch is oldest-first.
//
// The shard also carries its slice of the Job pool: a Treiber free list
// whose push is a single CAS and whose pop is guarded by a try-lock
// (popBusy). Serializing poppers is what makes the Treiber pop ABA-safe
// without tagged pointers: a node's qnext cannot be rewritten while it is
// in the list, and only one popper at a time traverses the head. A
// contended popper simply misses — the caller heap-allocates, which is
// the safety valve, not a correctness event.
//
// A shard is rounded up to whole cacheline units (DESIGN.md §7) so that
// two shards — elements of one slice — never share one. Within a shard no
// split is attempted: a submission takes its Job from, and pushes it to,
// the same shard, and n is written from both sides.
type intakeShard struct {
	intakeLists
	_ [cacheline.Size - unsafe.Sizeof(intakeLists{})%cacheline.Size]byte
}

type intakeLists struct {
	inbox atomic.Pointer[Job] // lock-free producer side (LIFO)
	n     atomic.Int64        // visible roots in this shard (inbox + out)

	cmu  sync.Mutex // consumer side: adopt/reverse/pop
	head *Job       // FIFO out list, oldest first; guarded by cmu
	tail *Job       // guarded by cmu

	free    atomic.Pointer[Job] // recycled Jobs (Treiber LIFO)
	freeN   atomic.Int32
	popBusy atomic.Bool
}

// push publishes j to this shard. Callers wake the park lot afterwards,
// mirroring Fork's publish-then-wake Dekker pair, so a parked thief
// cannot miss the root.
func (s *intakeShard) push(j *Job) {
	s.n.Add(1)
	for {
		h := s.inbox.Load()
		j.qnext.Store(h)
		if s.inbox.CompareAndSwap(h, j) {
			return
		}
	}
}

// pop removes the oldest root in this shard. The n.Load fast path keeps
// the empty case (every failed steal sweep ends here) at one atomic read
// of a line that is clean while no submits target the shard.
func (s *intakeShard) pop() (*Job, bool) {
	if s.n.Load() <= 0 {
		return nil, false
	}
	s.cmu.Lock()
	if s.head == nil {
		// Out list dry: adopt the inbox in one Swap and reverse the LIFO
		// batch into FIFO order. Everything in the inbox is newer than
		// anything the out list held, so draining out-first preserves
		// per-shard FIFO exactly.
		var rev *Job
		for in := s.inbox.Swap(nil); in != nil; {
			next := in.qnext.Load()
			in.qnext.Store(rev)
			rev = in
			in = next
		}
		s.head = rev
	}
	j := s.head
	if j == nil {
		s.cmu.Unlock()
		return nil, false // racing pop won the batch; transient n overshoot
	}
	s.head = j.qnext.Load()
	j.qnext.Store(nil)
	s.n.Add(-1)
	s.cmu.Unlock()
	return j, true
}

// getFree pops a recycled Job, or nil. Pops are serialized by popBusy —
// see the type comment for the ABA argument; a contended caller
// allocates instead of spinning.
func (s *intakeShard) getFree() *Job {
	if s.free.Load() == nil || !s.popBusy.CompareAndSwap(false, true) {
		return nil
	}
	var j *Job
	for {
		j = s.free.Load()
		if j == nil {
			break
		}
		if s.free.CompareAndSwap(j, j.qnext.Load()) {
			j.qnext.Store(nil)
			s.freeN.Add(-1)
			break
		}
	}
	s.popBusy.Store(false)
	return j
}

// putFree recycles j (already reset by the caller); over the cap the Job
// is dropped to the GC.
func (s *intakeShard) putFree(j *Job) {
	if s.freeN.Load() >= jobFreeCap {
		return
	}
	s.freeN.Add(1)
	for {
		h := s.free.Load()
		j.qnext.Store(h)
		if s.free.CompareAndSwap(h, j) {
			return
		}
	}
}

// shardedIntake is the root intake: one intakeShard per worker slot.
// Submitters pick a shard by hashing the submission id; thieves drain
// shards round-robin starting at their own slot (pop's self), so
// concurrent drains start on distinct shards and the "roots only after a
// failed steal sweep" priority is preserved per thief.
// getJob returns a recycled Job for a submission id (nil when that shard's
// free list is empty or contended); putJob recycles a completed, already
// reset Job — see Job.Release for the handoff rules.
type shardedIntake struct {
	shards []intakeShard
}

func newShardedIntake(n int) *shardedIntake {
	if n < 1 {
		n = 1
	}
	return &shardedIntake{shards: make([]intakeShard, n)}
}

func (q *shardedIntake) push(j *Job) {
	q.shards[intakeHash(j.id, len(q.shards))].push(j)
}

func (q *shardedIntake) pop(self int) (*Job, bool) {
	ns := len(q.shards)
	for i := 0; i < ns; i++ {
		if j, ok := q.shards[(self+i)%ns].pop(); ok {
			return j, true
		}
	}
	return nil, false
}

func (q *shardedIntake) len() int {
	n := 0
	for i := range q.shards {
		if v := int(q.shards[i].n.Load()); v > 0 {
			n += v
		}
	}
	return n
}

func (q *shardedIntake) getJob(id uint64) *Job {
	return q.shards[intakeHash(id, len(q.shards))].getFree()
}

func (q *shardedIntake) putJob(id uint64, j *Job) {
	q.shards[intakeHash(id, len(q.shards))].putFree(j)
}
