package sim

import (
	"container/heap"
	"fmt"

	"es2/internal/enginestats"
)

// Handle identifies a scheduled event and allows it to be cancelled or
// rescheduled. Handles are returned by Engine.At and Engine.After.
type Handle struct {
	t        Time
	seq      uint64
	index    int // position in the heap, -1 when not queued
	fn       func()
	canceled bool
	// perfLabel is the enginestats subsystem label of a sampled event
	// (0 for the unsampled majority and when stats are off).
	perfLabel int32
}

// Cancel prevents the event from firing. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel must be called from
// the engine goroutine (i.e. from inside event callbacks), like every
// other engine method.
func (h *Handle) Cancel() {
	if h == nil {
		return
	}
	h.canceled = true
	h.fn = nil // release the closure promptly
}

// Active reports whether the event is still pending.
func (h *Handle) Active() bool { return h != nil && !h.canceled && h.index >= 0 }

// eventQueue is a binary min-heap of *Handle ordered by (time, seq).
type eventQueue []*Handle

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	h := x.(*Handle)
	h.index = len(*q)
	*q = append(*q, h)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	h.index = -1
	*q = old[:n-1]
	return h
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	rng     *Rand
	stopped bool

	// Stats, useful for harness introspection and tests. The heap
	// counters are maintained unconditionally — they are plain
	// increments — and read through HeapStats.
	fired      uint64
	heapPushes uint64
	heapPops   uint64
	heapFixes  uint64
	maxDepth   int
	depthSum   uint64 // queue length summed at each push (mean depth)

	// stats, when non-nil, receives the event stream for wall-clock
	// performance telemetry (see SetStats).
	stats *enginestats.Collector
}

// NewEngine returns an engine with its clock at zero and randomness
// seeded from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return len(e.queue) }

// HeapStats snapshots the event-queue counters: pushes, pops, in-place
// fixes, max and mean queue depth, and the current pending count.
func (e *Engine) HeapStats() enginestats.HeapStats {
	hs := enginestats.HeapStats{
		Pushes:   e.heapPushes,
		Pops:     e.heapPops,
		Fixes:    e.heapFixes,
		MaxDepth: e.maxDepth,
		Pending:  len(e.queue),
	}
	if e.heapPushes > 0 {
		hs.MeanDepth = float64(e.depthSum) / float64(e.heapPushes)
	}
	return hs
}

// SetStats attaches a wall-clock performance collector: subsequent
// events flow through it for events-per-tick accounting and sampled
// per-subsystem wall/allocation attribution. Pass nil to detach.
// Attaching a collector never perturbs the simulation — event order
// and simulated results are identical with and without one.
func (e *Engine) SetStats(c *enginestats.Collector) { e.stats = c }

// Stats returns the attached performance collector (nil when off).
func (e *Engine) Stats() *enginestats.Collector { return e.stats }

// At schedules fn to run at instant t. Scheduling in the past panics:
// it always indicates a model bug, and silently clamping would hide it.
func (e *Engine) At(t Time, fn func()) *Handle {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: now=%v t=%v", e.now, t))
	}
	h := &Handle{t: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, h)
	e.heapPushes++
	n := len(e.queue)
	if n > e.maxDepth {
		e.maxDepth = n
	}
	e.depthSum += uint64(n)
	if e.stats != nil {
		h.perfLabel = e.stats.SampleSite()
	}
	return h
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step executes the single earliest pending event. It returns false when
// the queue is empty or the engine has been stopped.
func (e *Engine) Step() bool {
	for {
		if e.stopped || len(e.queue) == 0 {
			return false
		}
		h := heap.Pop(&e.queue).(*Handle)
		e.heapPops++
		if h.canceled {
			continue
		}
		if h.t < e.now {
			panic("sim: time went backwards")
		}
		e.now = h.t
		fn := h.fn
		h.fn = nil
		e.fired++
		if e.stats != nil {
			e.stats.RunEvent(int64(h.t), h.perfLabel, fn)
		} else {
			fn()
		}
		return true
	}
}

// Run executes events until the clock would pass the until instant, the
// queue drains, or Stop is called. On return the clock reads exactly
// until (if the horizon was hit) or the time of the last event executed.
func (e *Engine) Run(until Time) {
	for !e.stopped && len(e.queue) > 0 {
		// Peek without popping so an over-horizon event survives for a
		// later Run call.
		next := e.queue[0]
		if next.canceled {
			heap.Pop(&e.queue)
			e.heapPops++
			continue
		}
		if next.t > until {
			break
		}
		e.Step()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// Stop halts the engine: Run/RunAll/Step return immediately afterwards.
// Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
