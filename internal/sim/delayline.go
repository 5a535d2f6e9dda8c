package sim

import "fmt"

// DelayLine hands values to one callback, each at its own instant, in
// the order they were sent. It replaces a closure per value wherever a
// source's deadlines never decrease: a wire whose serialization makes
// delivery times increase, or a constant latency added to the clock.
//
// Each value still schedules its own event through Engine.At, so every
// delivery keeps the (time, seq) key a closure would have had and the
// fire order cannot change. Only the value moves: it waits in the
// line's FIFO instead of in a closure, and the callback is bound once.
// Because deadlines never decrease, events of one line fire in the
// order they were sent, so the event that fires always belongs to the
// value at the head of the FIFO. Deliveries cannot be cancelled.
type DelayLine[T any] struct {
	eng  *Engine
	fn   func(T)
	fire func()  // d.deliver, bound once
	last Time    // deadline of the latest value sent
	q    Ring[T] // values sent and not yet delivered
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
// values out of their events' order.
func (d *DelayLine[T]) At(t Time, v T) {
	if t < d.last {
		panic(fmt.Sprintf("sim: delay line deadline %v before the previous %v", t, d.last))
	}
	d.eng.At(t, d.fire) // first: a deadline in the past panics here
	d.last = t
	d.q.Push(v)
}

// After sends v to be delivered delay from now.
func (d *DelayLine[T]) After(delay Time, v T) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	d.At(d.eng.now+delay, v)
}

// deliver pops the head value and hands it to the callback. The slot
// is cleared first, so the line does not keep the value alive.
func (d *DelayLine[T]) deliver() { d.fn(d.q.Pop()) }
