package deque

import (
	"sync/atomic"

	"fibril/internal/cacheline"
)

// Relaxed is a fence-free work-stealing deque with multiplicity, after
// Castañeda & Piña ("Fully read/write fence-free work-stealing with
// multiplicity", arXiv 2008.04424): the owner's operations use only plain
// reads and blind writes — no compare-and-swap, no read-modify-write of
// any kind — and the price is a *relaxed* extraction guarantee: a task may
// rarely be extracted more than once (bounded multiplicity), never zero
// times. Exactly-once execution is restored one layer up by a per-task
// claim word (Claim) that every extractor must win before running the
// task; see WithClaim and internal/core's idempotence layer.
//
// The implementation splits the deque in two:
//
//   - a private ring, touched only by the owner with plain loads and
//     stores. The steady-state Push/Pop path begins and usually ends here:
//     zero atomic operations, zero allocations, no fence of any kind. This
//     is what removes the THE/Chase-Lev owner-side synchronization (a
//     store-load fence or CAS on every Pop) from the fork hot path.
//   - a published window, visible to thieves: a small ring of immutable
//     boxed nodes and one packed anchor word (head | size | tag). Thieves
//     extract with a CAS on the anchor; the owner publishes and reclaims
//     with *blind stores* to it. The owner's store can overwrite a
//     concurrent thief CAS, regressing the window over indexes a thief
//     already extracted — that is the multiplicity window, and it is the
//     whole trick: the owner never waits on thieves and never performs an
//     atomic RMW, so no extraction is ever lost, but one may be repeated.
//
// Publication is lazy: the newest private task stays private and older
// tasks are topped up into the window only while it is below its goal
// size, so a fork/join running ahead of the thieves (the common case)
// never publishes, never allocates, and never touches the anchor with a
// store. A task is boxed exactly once, at publication, into a node that is
// immutable until the GC reclaims it — a thief holding a stale node
// pointer only ever reads immutable memory, and duplicate extractions are
// resolved by the node's claim, never by unpublishing.
//
// Memory-model note (Go): sync/atomic is sequentially consistent, so on
// amd64 every atomic *store* still compiles to an XCHG. "Fence-free" here
// therefore means the owner's steady-state path performs *no* atomic
// operations at all, not that the published-side blind stores are free;
// those run only while thieves are actively draining the window, so their
// cost scales with steal pressure rather than with forks.
//
// Push, Pop, LazyHint and Unpublished are owner-only; Steal, StealIf and
// Len may be called from any goroutine.
//
// Laid out by writer like Deque (DESIGN.md §15): the private ring and the
// publication backoff are plain owner memory written on every Push and
// Pop; the anchor is what thieves CAS, and the window's ring sits with it
// because the owner touches the two together (at a publication or a
// reclaim) and thieves read the ring only on their way to the anchor.
type Relaxed[T Stampable[T]] struct {
	_ cacheline.Pad

	// Owner-private ring: plain memory, owner-only. head is the oldest
	// entry (next to publish), tail the insertion point (newest popped
	// first). Never touched by thieves, so no atomics and no clearing
	// discipline beyond GC hygiene.
	priv     []T
	privHead int64
	privTail int64

	// Publication backoff (owner-only plain memory). A publication is
	// "wasted" when the owner itself reclaims the node via Pop: the box was
	// allocated for thieves that never came. wasted counts consecutive
	// wasted publications since the last observed thief consumption; once
	// it reaches relWasteCap the owner stops feeding the window until
	// thieves consume again (detected through the stolenSeen watermark) or
	// the per-push decay in Push releases one probe publication. This is
	// what keeps an undisturbed deep fork/join — the nqueens publication
	// burst — from boxing a node per oscillation.
	pubs       int64 // total publications
	reclaims   int64 // window entries the owner reclaimed via Pop
	wasted     int64 // consecutive owner-reclaimed publications
	stolenSeen int64 // thief-consumption watermark: pubs - reclaims - size
	sincePub   int64 // pushes since the last backoff decay

	_ cacheline.Pad

	// Published window: anchor packs (head, size, tag) in one word; ring
	// holds the window's boxed nodes. The window [head, head+size) always
	// contains every published-unclaimed task (the no-loss invariant); the
	// tag increments on every publication so a stale thief CAS — taken
	// against a window the owner has since rebuilt — cannot succeed.
	anchor atomic.Uint64
	ring   [relRingCap]atomic.Pointer[relNode[T]]

	_ cacheline.Pad
}

// relNode boxes one published task with its execution claim. Published
// nodes are immutable: a thief that extracted index i may dereference its
// node pointer arbitrarily late (it won the anchor CAS, but the owner's
// blind store may already have resurrected i into the window for a second
// extractor), so nodes are never reused and never unpublished — the GC
// reclaims them once the last extractor drops its reference.
type relNode[T any] struct {
	claim Claim
	val   T
}

// Stampable is the element constraint of Relaxed: the deque must be able
// to stamp the publication-time claim into the value it hands to
// extractors, so every copy of a multiply-extracted task carries the same
// claim word. Value types that cannot carry a claim cannot ride a
// multiplicity deque.
type Stampable[T any] interface {
	// WithClaim returns a copy of the value carrying c as its execution
	// claim. Called once per publication, before the node becomes visible.
	WithClaim(c *Claim) T
}

// Claim is a one-shot execution claim. Every extractor of a published
// task — a thief that won the anchor CAS, or the owner reclaiming from
// the window — must win Acquire before executing it; the losers observed
// a duplicate extraction and must drop the task on the floor. The zero
// value is unclaimed.
type Claim struct{ state atomic.Uint32 }

// Acquire attempts to win the claim; exactly one caller ever succeeds.
// Nil-safe: a nil claim (a task that was never published, so never
// duplicable) is trivially won.
func (c *Claim) Acquire() bool {
	return c == nil || c.state.CompareAndSwap(0, 1)
}

const (
	// relRingCap is the published ring capacity. The window never exceeds
	// relPublishGoal entries, so the ring never grows and — because
	// relPublishGoal < relRingCap — a publication can never overwrite a
	// slot inside the live window.
	relRingCap = 64
	// relPublishGoal is the lazy-publication target: the owner tops the
	// window up to this many stealable tasks whenever it holds a deep
	// private backlog. Small enough that the window's claim CASes stay rare
	// on the owner side, large enough to feed several simultaneous thieves.
	relPublishGoal = 8
	// relPrivateReserve is the publication hysteresis: with a non-empty
	// window, the owner publishes only entries buried deeper than this many
	// private tasks. A fork/join oscillation of smaller amplitude then stays
	// entirely on the private (zero-atomic, zero-alloc) side instead of
	// republishing — and re-boxing — a node on every cycle at the boundary.
	// Only an empty window (thieves starving) overrides the reserve.
	relPrivateReserve = 8

	// relWasteCap bounds consecutive wasted publications: after this many
	// owner-reclaimed boxes with no thief consumption in between, topUp
	// stops publishing until a steal is observed or the decay below fires.
	relWasteCap = 4
	// relWasteDecay is the backoff release interval, in pushes: every this
	// many pushes one unit of wasted credit is returned, so a worker that
	// went quiet for thieves (or never had any) still probes the window
	// with a publication once per interval and parallelism can restart
	// after a serial phase. Stray steady-state boxing is thus bounded by
	// one allocation per relWasteDecay forks.
	relWasteDecay = 256

	relHeadBits = 24 // published head, mod 2^24
	relSizeBits = 16 // window size; <= relPublishGoal in practice
	relTagBits  = 24 // publication tag, mod 2^24
)

// packAnchor packs (head, size, tag) into one word: head<<40|size<<24|tag.
// head and tag wrap at 2^24; relRingCap divides 2^24, so slot indexing
// stays consistent across the wrap. A thief CAS can be fooled only if the
// anchor returns bit-for-bit to its loaded value with activity in between,
// which requires an exact multiple of 2^24 publications inside one
// load-to-CAS window — not a reachable schedule.
func packAnchor(head, size, tag uint64) uint64 {
	return (head&(1<<relHeadBits-1))<<(relSizeBits+relTagBits) |
		(size&(1<<relSizeBits-1))<<relTagBits |
		tag&(1<<relTagBits-1)
}

func unpackAnchor(a uint64) (head, size, tag uint64) {
	return a >> (relSizeBits + relTagBits),
		a >> relTagBits & (1<<relSizeBits - 1),
		a & (1<<relTagBits - 1)
}

// Push adds t at the bottom of the deque (owner only). The fast path is a
// plain ring append: a push holding no surplus (the tight fork/join loop,
// where the single pending child is about to be popped back) performs
// zero atomic operations. With a surplus, the anchor poll is one atomic
// load, and publication work happens only when the window is empty or a
// deeper-than-reserve backlog feeds it — so thieves draining the window is
// what makes the owner publish, and an undisturbed owner almost never
// does.
func (d *Relaxed[T]) Push(t T) {
	if d.priv == nil || d.privTail-d.privHead == int64(len(d.priv)) {
		d.growPriv()
	}
	d.priv[d.privTail&int64(len(d.priv)-1)] = t
	d.privTail++
	d.sincePub++
	if d.sincePub >= relWasteDecay {
		d.sincePub = 0
		if d.wasted > 0 {
			d.wasted-- // release one probe publication (see relWasteDecay)
		}
	}
	if d.privTail-d.privHead >= 2 {
		d.topUp()
	}
}

// growPriv doubles the private ring. Owner-only plain memory, so this is
// an ordinary copy; it amortizes to nothing and in shallow fork/join
// patterns (private depth <= initial capacity) never runs at all.
func (d *Relaxed[T]) growPriv() {
	n := initialCapacity
	for int64(n) < (d.privTail-d.privHead)*2 {
		n *= 2
	}
	nbuf := make([]T, n)
	for i := d.privHead; i < d.privTail; i++ {
		nbuf[i&int64(n-1)] = d.priv[i&int64(len(d.priv)-1)]
	}
	d.priv = nbuf
}

// topUp publishes oldest private tasks, governed by two rules with
// hysteresis between them: an *empty* window is refilled as soon as any
// surplus exists (two or more private tasks — the newest always stays
// private), so thieves are never starved for long; a *non-empty* window is
// topped toward its goal only from private backlog deeper than
// relPrivateReserve. The reserve is what keeps publication off the hot
// path: a fork/join oscillation of amplitude below the reserve never
// crosses the private/published boundary, so the owner republishes only on
// deep depth excursions, not once per fork. Each publication boxes the
// task with a fresh claim, makes the node visible in the ring, then
// blind-stores the widened anchor with a bumped tag. The stores may
// overwrite concurrent thief CASes; that only regresses the window over
// already-extracted indexes (re-extraction, resolved by the claims), never
// over an unpublished slot.
func (d *Relaxed[T]) topUp() {
	head, size, tag := unpackAnchor(d.anchor.Load())
	// Thief-consumption watermark: every publication is eventually either
	// reclaimed by the owner or consumed by a thief, so pubs - reclaims -
	// size only grows past its recorded high-water mark when thieves have
	// taken something. Observing that resets the waste backoff.
	if stolen := d.pubs - d.reclaims - int64(size); stolen > d.stolenSeen {
		d.stolenSeen = stolen
		d.wasted = 0
	}
	if d.wasted >= relWasteCap {
		return // publications are going to waste; starve the window instead
	}
	for {
		surplus := d.privTail - d.privHead
		starving := size == 0 && surplus >= 2
		backlog := size < relPublishGoal && surplus > relPrivateReserve
		if !starving && !backlog {
			return
		}
		n := &relNode[T]{}
		n.val = d.priv[d.privHead&int64(len(d.priv)-1)].WithClaim(&n.claim)
		var zero T
		d.priv[d.privHead&int64(len(d.priv)-1)] = zero // release for GC
		d.privHead++
		d.ring[(head+size)&(relRingCap-1)].Store(n)
		size++
		tag++
		d.pubs++
		d.anchor.Store(packAnchor(head, size, tag))
	}
}

// Pop removes and returns the bottom entry (owner only). The fast path —
// any private task present — is plain loads and stores. When the private
// side is empty the owner reclaims the newest published entry with an
// anchor load, a node read, and a blind anchor store: still no RMW and no
// fence, at the price that a thief may have extracted (or may yet extract)
// the same node — the caller's claim arbitrates.
func (d *Relaxed[T]) Pop() (T, bool) {
	var zero T
	if d.privTail > d.privHead {
		d.privTail--
		i := d.privTail & int64(len(d.priv)-1)
		v := d.priv[i]
		d.priv[i] = zero
		return v, true
	}
	head, size, tag := unpackAnchor(d.anchor.Load())
	if size == 0 {
		return zero, false
	}
	n := d.ring[(head+size-1)&(relRingCap-1)].Load()
	d.anchor.Store(packAnchor(head, size-1, tag))
	d.reclaims++
	d.wasted++ // this box never fed a thief; charge the publication backoff
	return n.val, true
}

// Steal removes and returns the top (oldest published) entry; any
// goroutine may call it. Thieves serialize among themselves — and yield to
// the owner's blind stores — through the single CAS on the anchor. A
// winning CAS guarantees the node read belongs to the window observed
// (any intervening publication bumped the tag, any reclaim changed the
// size, any competing steal moved the head), but not that the task is
// unclaimed: the owner's store may have resurrected an extracted index.
// Callers must win the value's Claim before executing it.
func (d *Relaxed[T]) Steal() (T, bool) {
	var zero T
	a := d.anchor.Load()
	head, size, tag := unpackAnchor(a)
	if size == 0 {
		return zero, false
	}
	n := d.ring[head&(relRingCap-1)].Load()
	if n == nil {
		return zero, false // window not yet populated at this index
	}
	if !d.anchor.CompareAndSwap(a, packAnchor(head+1, size-1, tag)) {
		return zero, false
	}
	return n.val, true
}

// StealIf steals the top entry only if pred accepts it — the
// restricted-stealing hook shared with the other deque kinds. Like
// Chase-Lev, the candidate is inspected before the CAS: published nodes
// are immutable forever (they are never recycled, precisely so that
// late-dereferencing duplicate extractors stay safe), so the pre-CAS read
// is always of stable memory and a stale candidate is rejected by the CAS.
func (d *Relaxed[T]) StealIf(pred func(T) bool) (T, bool) {
	var zero T
	a := d.anchor.Load()
	head, size, tag := unpackAnchor(a)
	if size == 0 {
		return zero, false
	}
	n := d.ring[head&(relRingCap-1)].Load()
	if n == nil {
		return zero, false
	}
	if !pred(n.val) {
		return zero, false
	}
	if !d.anchor.CompareAndSwap(a, packAnchor(head+1, size-1, tag)) {
		return zero, false
	}
	return n.val, true
}

// StealBatch steals up to len(dst) of the oldest published entries into
// dst and reports how many were taken — the steal-half extraction for the
// published window. Unlike the other deque kinds it is a true multi-entry
// extraction: the nodes are read first (published nodes are immutable
// forever, so pre-CAS reads are always of stable memory) and a single CAS
// advances the anchor over all of them at once. As with Steal, a winning
// CAS does not guarantee the tasks are unclaimed — the owner's blind store
// may have resurrected extracted indexes for another extractor — so the
// caller must win each value's Claim before executing it.
func (d *Relaxed[T]) StealBatch(dst []T) int {
	var zero T
	a := d.anchor.Load()
	head, size, tag := unpackAnchor(a)
	if size == 0 || len(dst) == 0 {
		return 0
	}
	k := uint64(len(dst))
	if k > size {
		k = size
	}
	m := uint64(0)
	for ; m < k; m++ {
		n := d.ring[(head+m)&(relRingCap-1)].Load()
		if n == nil {
			break // window not yet populated at this index
		}
		dst[m] = n.val
	}
	if m == 0 {
		return 0
	}
	if !d.anchor.CompareAndSwap(a, packAnchor(head+m, size-m, tag)) {
		for i := uint64(0); i < m; i++ {
			dst[i] = zero // drop the copies; their claims were never won
		}
		return 0
	}
	return int(m)
}

// Len reports the published window size — the only portion thieves can
// see, which makes it the right victim-selection signal. Like the other
// deques' Len it is a racy snapshot. Private backlog is excluded (it
// lives in plain owner memory a concurrent reader must not touch); use
// Unpublished from the owner for quiescence accounting.
func (d *Relaxed[T]) Len() int {
	_, size, _ := unpackAnchor(d.anchor.Load())
	return int(size)
}

// Empty reports whether the published window appears empty.
func (d *Relaxed[T]) Empty() bool { return d.Len() == 0 }

// Unpublished reports the owner-private backlog (owner only — plain
// reads). At quiescence the harness adds it to Len to assert no forked
// task was left behind in either half.
func (d *Relaxed[T]) Unpublished() int { return int(d.privTail - d.privHead) }

// LazyHint reports whether the owner should publish more parallelism:
// true when thieves see an empty window and the private side holds no
// surplus that the next pushes would publish anyway. Owner-only, like
// Push; one atomic load.
func (d *Relaxed[T]) LazyHint() bool {
	if d.privTail-d.privHead >= 2 {
		return false // surplus exists; upcoming pushes will publish it
	}
	_, size, _ := unpackAnchor(d.anchor.Load())
	return size == 0
}
