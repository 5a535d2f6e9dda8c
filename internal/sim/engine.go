package sim

import (
	"fmt"

	"es2/internal/enginestats"
)

// Handle identifies a scheduled event and allows it to be cancelled or
// moved. Handles are values returned by Engine.At, Engine.After and
// Engine.AtKey; the zero Handle refers to no event. The engine recycles
// an event once it fires or is cancelled, so a Handle also records the
// event's generation: once the event has left the queue, methods on the
// Handle are no-ops, even after the engine reuses the event for another
// callback.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel removes the event from the queue at once, so it never fires
// and no longer counts in Pending. Cancelling an event that has already
// fired or been cancelled is a no-op, as is cancelling the zero Handle.
// Cancel must be called from the engine goroutine (i.e. from inside
// event callbacks), like every other engine method.
func (h Handle) Cancel() {
	if h.Active() {
		h.ev.eng.cancel(h.ev)
	}
}

// Active reports whether the event is still pending.
func (h Handle) Active() bool { return h.ev != nil && h.ev.gen == h.gen }

// Move re-keys a pending event to fire at t. The event takes a fresh
// sequence number, so it fires exactly where Cancel followed by At(t)
// would put a new one, but it keeps its place in the heap and its
// Handle, and one sift from its slot restores the order. Move reports
// false, and does nothing, if the event has already fired or been
// cancelled. Moving an event into the past panics, as At does.
func (h Handle) Move(t Time) bool {
	if !h.Active() {
		return false
	}
	h.ev.eng.move(h.ev, t)
	return true
}

// Key is a place in the firing order: an instant and a sequence number.
// Reserve takes the key an At would give an event without queueing
// anything, and AtKey queues an event under it later. The event fires
// exactly where the At would have put it, provided it joins the queue
// before its key is due.
type Key struct {
	t   Time
	seq uint64
}

// Time returns the key's instant.
func (k Key) Time() Time { return k.t }

// event is one queue entry. Every queued event is live: Cancel takes an
// event out of the heap rather than marking it. The one exception is
// the spent root a firing event leaves held (see Step).
type event struct {
	t   Time
	seq uint64
	fn  func()
	// gen advances each time the event leaves the queue; see Handle.
	gen uint64
	// eng is the engine whose queue holds the event, so that a Handle
	// can remove it.
	eng *Engine
	// perfLabel is the enginestats subsystem label of a sampled event
	// (0 for the unsampled majority and when stats are off).
	perfLabel int32
	// idx is the event's slot in the heap while it is queued.
	idx int32
}

// before orders events by (time, seq). seq is unique, so the order is
// total and every heap pops events in the same sequence.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of events ordered by before. Every
// event records its slot in idx, so any entry can be removed in
// O(log n), not only the earliest.
type eventQueue []*event

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(ev, len(*q)-1)
}

// remove takes the entry in slot i out of the heap: the last entry
// moves into the slot and sifts whichever way restores the order.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/2]) {
		h.up(last, i)
	} else {
		h.down(last, i)
	}
}

// up places ev at slot i or above it, moving later ancestors down.
func (q eventQueue) up(ev *event, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = int32(i)
		i = p
	}
	q[i] = ev
	ev.idx = int32(i)
}

// down places ev at slot i or below it, moving earlier children up.
func (q eventQueue) down(ev *event, i int) {
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].idx = int32(i)
		i = c
	}
	q[i] = ev
	ev.idx = int32(i)
}

// Engine is a discrete-event simulation executive. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	free    []*event // events that left the queue, ready for reuse
	rng     *Rand
	stopped bool
	// nowSeq is the sequence number of the last event fired at now, or
	// 0 when Run moved the clock past the last event fired; AtKey
	// refuses a key ordered before it.
	nowSeq uint64
	// held marks queue[0] as the spent entry of the event that is
	// firing: Step leaves it in the root while the callback runs, and
	// the callback's first At writes its new event over it (see Step).
	held bool

	// Stats, useful for harness introspection and tests. The heap
	// counters are maintained unconditionally — they are plain
	// increments — and read through HeapStats.
	fired       uint64
	heapPushes  uint64
	heapPops    uint64
	heapCancels uint64
	heapMoves   uint64
	maxDepth    int
	depthSum    uint64 // queue length summed at each push (mean depth)

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

// Pending returns the number of events waiting to fire. Cancel removes
// an event from the queue at once, so every queued event counts; the
// spent entry of the firing event does not. A delay line queues only
// its head, so the values waiting behind a head do not count.
func (e *Engine) Pending() int {
	if e.held {
		return len(e.queue) - 1
	}
	return len(e.queue)
}

// HeapStats snapshots the event-queue counters: pushes, pops (one per
// fired event), cancels, moves, max and mean queue depth, and the
// current pending count. A moved event stays queued, so Pushes always
// equals Pops + Cancels + Pending.
func (e *Engine) HeapStats() enginestats.HeapStats {
	hs := enginestats.HeapStats{
		Pushes:   e.heapPushes,
		Pops:     e.heapPops,
		Cancels:  e.heapCancels,
		Moves:    e.heapMoves,
		MaxDepth: e.maxDepth,
		Pending:  e.Pending(),
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
func (e *Engine) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: At called with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: now=%v t=%v", e.now, t))
	}
	ev := e.insert(t, e.seq, fn)
	e.seq++
	if e.stats != nil {
		ev.perfLabel = e.stats.SampleSite()
	}
	return Handle{ev, ev.gen}
}

// Reserve takes the key the next At would give an event at t, without
// queueing one: the sequence number is used up, so every event
// scheduled later orders after the key. Reserving in the past panics.
func (e *Engine) Reserve(t Time) Key {
	if t < e.now {
		panic(fmt.Sprintf("sim: key reserved in the past: now=%v t=%v", e.now, t))
	}
	k := Key{t, e.seq}
	e.seq++
	return k
}

// reserveSampled is Reserve plus the engine-stats sample At takes, for
// DelayLine.At: the label travels with the key until the value's event
// joins the queue. Like At, it must be SampleSite's direct caller and
// be called directly by the sending method.
func (e *Engine) reserveSampled(t Time) (Key, int32) {
	k := e.Reserve(t)
	if e.stats != nil {
		return k, e.stats.SampleSite()
	}
	return k, 0
}

// AtKey schedules fn under a key taken by Reserve, so that it fires
// where an At at the time of the Reserve would have. The key must not
// be due yet: AtKey panics if k lies before now, or at now but ordered
// before the event that fired last, because the event would then fire
// out of its place. Each key must be queued at most once.
func (e *Engine) AtKey(k Key, fn func()) Handle {
	if fn == nil {
		panic("sim: AtKey called with nil fn")
	}
	if k.t < e.now || k.t == e.now && k.seq < e.nowSeq {
		panic(fmt.Sprintf("sim: key already due: now=%v t=%v seq=%d", e.now, k.t, k.seq))
	}
	ev := e.insert(k.t, k.seq, fn)
	if e.stats != nil {
		ev.perfLabel = e.stats.SampleSite()
	}
	return Handle{ev, ev.gen}
}

// insert queues fn under the key (t, seq) in a recycled event. The
// fields are written one by one: a composite literal would be built on
// the stack and copied over.
func (e *Engine) insert(t Time, seq uint64, fn func()) *event {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{eng: e}
	}
	ev.t, ev.seq, ev.fn, ev.perfLabel = t, seq, fn, 0
	if e.held {
		// The spent root sorts before every queued event, so the new
		// event can take its slot and sift down from there.
		e.held = false
		e.queue.down(ev, 0)
	} else {
		e.queue.push(ev)
	}
	e.heapPushes++
	n := len(e.queue)
	if n > e.maxDepth {
		e.maxDepth = n
	}
	e.depthSum += uint64(n)
	return ev
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// release recycles an event that has left the queue: it drops the
// callback, advances the generation so outstanding Handles go stale,
// and puts the event on the free list.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// move re-keys a queued event to (t, next seq); see Handle.Move. The
// fresh seq orders the event after its old key unless t is earlier, so
// it sifts down, or up when t is earlier. A held spent root sorts
// before the new key, so a sift up stops below it.
func (e *Engine) move(ev *event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event moved into the past: now=%v t=%v", e.now, t))
	}
	earlier := t < ev.t
	ev.t, ev.seq = t, e.seq
	e.seq++
	e.heapMoves++
	if earlier {
		e.queue.up(ev, int(ev.idx))
	} else {
		e.queue.down(ev, int(ev.idx))
	}
}

// cancel removes a queued event from the heap; see Handle.Cancel. A
// held spent root sorts before every queued event, so the removal's
// sift-up stops below it.
func (e *Engine) cancel(ev *event) {
	e.queue.remove(int(ev.idx))
	e.heapCancels++
	e.release(ev)
}

// Step executes the single earliest pending event. It returns false when
// the queue is empty or the engine has been stopped.
//
// Most callbacks schedule a successor at once, so Step does not pop
// the fired event before its callback runs: it leaves the spent entry
// in the root, marked held, and the callback's first At writes its new
// event there and sifts it down once, in place of a pop's sift-down
// and a push's sift-up. Step removes the entry itself only when the
// callback scheduled nothing. Pending, HeapStats and Cancel see the
// queue as if the entry had been popped.
func (e *Engine) Step() bool {
	e.drop()
	if e.stopped || len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.held = true
	e.heapPops++
	t, fn, label := ev.t, ev.fn, ev.perfLabel
	e.nowSeq = ev.seq
	e.release(ev)
	if t < e.now {
		panic("sim: time went backwards")
	}
	e.now = t
	e.fired++
	if e.stats != nil {
		e.stats.RunEvent(int64(t), label, fn)
	} else {
		fn()
	}
	e.drop()
	return true
}

// drop removes a held spent entry from the root.
func (e *Engine) drop() {
	if e.held {
		e.held = false
		e.queue.remove(0)
	}
}

// Run executes events until the clock would pass the until instant, the
// queue drains, or Stop is called. On return the clock reads exactly
// until (if the horizon was hit) or the time of the last event executed.
func (e *Engine) Run(until Time) {
	e.drop()
	// Peek without popping so an over-horizon event survives for a
	// later Run call.
	for !e.stopped && len(e.queue) > 0 && e.queue[0].t <= until {
		e.Step()
	}
	if !e.stopped && e.now < until {
		e.now, e.nowSeq = until, 0
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
