package sim

// Ring is the FIFO queue under the event path: delay lines,
// virtqueues, vCPU work, vhost's work queue and backlog, and server
// queues. It holds n values starting at buf[head], wrapping at the end
// of buf. Like a split ring's index pair, popping a value only
// advances head. buf grows by doubling when a push finds it full, so a
// queue that holds a handful of values costs a handful of slots; a
// queue whose depth is known up front is sized once with Grow. Popped
// slots are cleared, so the ring does not keep a value alive. The zero
// value is an empty ring.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of values in the ring.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushSlot appends a zero value at the tail and returns a pointer to
// it, so that a large value can be written into its slot in place
// instead of being copied in through Push's argument. The pointer is
// valid until the next push. Push repeats these lines rather than
// calling PushSlot, which would push it over the inlining budget.
func (r *Ring[T]) PushSlot() *T {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	r.n++
	return &r.buf[i&(len(r.buf)-1)]
}

// PushFront puts v at the head, ahead of every value in the ring.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Pop removes and returns the head value. It panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("sim: Pop of an empty ring")
	}
	v := r.buf[r.head]
	r.Discard()
	return v
}

// TryPop removes and returns the head value, or reports false on an
// empty ring, for a caller that would otherwise check Len before Pop.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	r.Discard()
	return v, true
}

// Discard removes the head value without returning it, for a caller
// that has read what it needs in place through Front. It panics on an
// empty ring.
func (r *Ring[T]) Discard() {
	if r.n == 0 {
		panic("sim: Discard of an empty ring")
	}
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// Front returns a pointer to the head value, in place. It panics on an
// empty ring. The pointer is valid until the next push.
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("sim: Front of an empty ring")
	}
	return &r.buf[r.head]
}

// Clear removes every value, clearing their slots.
func (r *Ring[T]) Clear() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Grow makes room, if necessary, for another n values: after Grow(n),
// at least n values can be pushed without another allocation. The
// storage it allocates is the smallest power of two, from four slots,
// that holds them. Grow with n <= 0 does nothing. Grow repeats grow's
// unwrapping copy rather than sharing it: a shared helper would push
// Push, PushFront and PushSlot over the inlining budget.
func (r *Ring[T]) Grow(n int) {
	need := r.n + n
	if need <= len(r.buf) {
		return
	}
	size := 4
	for size < need {
		size *= 2
	}
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

// grow doubles buf from four slots, unwrapping the values to start at
// index 0.
func (r *Ring[T]) grow() {
	buf := make([]T, max(2*len(r.buf), 4))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
