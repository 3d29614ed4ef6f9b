package deque

import "sync"

// Locked is the semantic reference the differential tests and the fuzz
// targets compare Deque against: a mutex-protected slice with the same owner
// / thief API and the same publish point. items[:pub] is the public part
// thieves see, items[pub:] the owner's private region; a steal takes
// items[0], a pop the last item of either region, and a lazy push or a
// private pop that finds the public part dry publishes everything.
type Locked[T any] struct {
	mu    sync.Mutex
	items []T
	pub   int
}

// publish moves the publish point to the bottom and reports how far it moved.
// Caller holds mu.
func (d *Locked[T]) publish() int {
	n := len(d.items) - d.pub
	d.pub = len(d.items)
	return n
}

// Push adds t at the bottom and publishes it.
func (d *Locked[T]) Push(t T) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.publish()
	d.mu.Unlock()
}

// PushLazy adds t at the bottom, publishing only if the public part is dry.
func (d *Locked[T]) PushLazy(t *T) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.items = append(d.items, *t)
	if d.pub > 0 {
		return 0
	}
	return d.publish()
}

// Publish makes every private entry public.
func (d *Locked[T]) Publish() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publish()
}

// Pop removes from the bottom (LIFO end).
func (d *Locked[T]) Pop() (v T, ok bool) {
	_, ok = d.PopRepublish(&v)
	return v, ok
}

// PopRepublish is Pop reporting how many entries it published: those a
// private pop left behind a dry public part.
func (d *Locked[T]) PopRepublish(dst *T) (published int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0, false
	}
	*dst = d.items[n-1]
	d.items = d.items[:n-1]
	switch {
	case d.pub == n: // it was public
		d.pub--
	case d.pub == 0:
		published = d.publish()
	}
	return published, true
}

// Steal removes from the top (FIFO end) of the public part.
func (d *Locked[T]) Steal() (T, bool) {
	return d.StealIf(func(T) bool { return true })
}

// StealIf steals the top public entry only if pred accepts it.
func (d *Locked[T]) StealIf(pred func(T) bool) (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pub == 0 || !pred(d.items[0]) {
		return zero, false
	}
	v := d.items[0]
	d.items = d.items[1:]
	d.pub--
	return v, true
}

// Len reports the number of public entries.
func (d *Locked[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pub
}
