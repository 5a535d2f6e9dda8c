package sim

// Ring is the FIFO queue under the event path: delay lines,
// virtqueues, vCPU work, vhost's work queue and backlog, and server
// queues. It holds n values starting at buf[head], wrapping at the end
// of buf. Like a split ring's index pair, popping a value only
// advances head. buf grows by doubling when a push finds it full, so a
// queue that holds a handful of values costs a handful of slots. Only
// a ring whose fill is known up front, a pre-posted receive ring, is
// sized once with Grow. Popped slots are cleared, so the ring does not
// keep a value alive. The zero value is an empty ring.
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

// Grow increases the ring's capacity, if necessary, to guarantee space
// for another n values: after Grow(n), at least n values can be pushed
// without another allocation. Like slices.Grow, it panics if n is
// negative.
func (r *Ring[T]) Grow(n int) {
	if n < 0 {
		panic("sim: Grow with a negative count")
	}
	if need := r.n + n; need > len(r.buf) {
		size := 4
		for size < need {
			size *= 2
		}
		r.resize(size)
	}
}

// grow doubles buf from four slots.
func (r *Ring[T]) grow() { r.resize(max(2*len(r.buf), 4)) }

// resize moves the values into a new buf of size slots, a power of two
// that holds them all, unwrapping them to start at index 0.
func (r *Ring[T]) resize(size int) {
	buf := make([]T, size)
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
