package sim

import "fmt"

// DelayLine hands values to one callback, each at its own instant, in
// the order they were sent. It replaces a closure per value wherever a
// source's deadlines never decrease: a wire whose serialization makes
// delivery times increase, or a constant latency added to the clock.
//
// Each value reserves, at send, the (time, seq) key a closure's
// Engine.At would have taken (Engine.Reserve), and the line samples
// its engine-stats site at send as At does, so every delivery fires
// where the closure would have, under the same label, and the fire
// order cannot change. Only the line's head is queued: delivering it
// queues the next value under its reserved key. Because deadlines
// never decrease, keys of one line increase in send order, so the
// head's key is the line's earliest, and the event queue holds one
// event per non-empty line however many values wait behind the head.
// The values wait in the line's FIFO and the callback is bound once.
// Deliveries cannot be cancelled.
type DelayLine[T any] struct {
	eng  *Engine
	fn   func(T)
	fire func()             // d.deliver, bound once
	last Time               // deadline of the latest value sent
	q    Ring[lineEntry[T]] // values sent and not yet delivered
}

// lineEntry is one value on a delay line with the key it fires under
// and the engine-stats label sampled when it was sent.
type lineEntry[T any] struct {
	k     Key
	label int32
	v     T
}

// NewDelayLine returns an empty line that delivers values to fn.
func NewDelayLine[T any](eng *Engine, fn func(T)) *DelayLine[T] {
	if fn == nil {
		panic("sim: NewDelayLine called with nil fn")
	}
	d := &DelayLine[T]{eng: eng, fn: fn}
	d.fire = d.deliver
	return d
}

// At sends v to be delivered at instant t. A deadline earlier than the
// previous one sent on this line panics: the line would then deliver
// values out of their keys' order.
func (d *DelayLine[T]) At(t Time, v T) {
	if t < d.last {
		panic(fmt.Sprintf("sim: delay line deadline %v before the previous %v", t, d.last))
	}
	k, label := d.eng.reserveSampled(t) // first: a deadline in the past panics here
	d.last = t
	s := d.q.PushSlot()
	s.k, s.label, s.v = k, label, v
	if d.q.Len() == 1 {
		d.queue(s)
	}
}

// Grow makes room, if necessary, for another n values to wait on the
// line, so that a source that knows its burst, such as a client's flow
// starts, sizes the line once instead of doubling it (Ring.Grow).
func (d *DelayLine[T]) Grow(n int) { d.q.Grow(n) }

// After sends v to be delivered delay from now.
func (d *DelayLine[T]) After(delay Time, v T) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	d.At(d.eng.now+delay, v)
}

// queue puts the head value's event on the engine's queue under the
// value's reserved key and label. The key is never due: it was
// reserved after every event that has fired at its instant.
func (d *DelayLine[T]) queue(head *lineEntry[T]) {
	ev := d.eng.insert(head.k.t, head.k.seq, d.fire)
	ev.perfLabel = head.label
}

// deliver pops the head value, queues the next head and hands the
// value to the callback. The slot is cleared first, so the line does
// not keep the value alive.
func (d *DelayLine[T]) deliver() {
	v := d.q.Front().v
	d.q.Discard()
	if d.q.Len() > 0 {
		d.queue(d.q.Front())
	}
	d.fn(v)
}
