package vhost

import (
	"es2/internal/profile"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/trace"
)

// activity classifies what the worker's current effect chunk is doing,
// for CPU attribution. Handlers stamp it in plan() alongside the
// returned effect; it is read only by the profiler leaf resolver.
type activity uint8

const (
	// actTX: copying a guest TX descriptor and putting it on the wire.
	actTX activity = iota
	// actRX: copying a wire packet into a guest RX buffer.
	actRX
	// actSignal: raising the guest's receive interrupt (irqfd write).
	actSignal
	// actPoll: empty-poll rounds and notification race re-checks — the
	// "wasted cycles" of polling that the paper's quota bounds.
	actPoll
	// actStall: injected worker stalls (fault scenarios).
	actStall

	numActivities = iota
)

// handler is the scheduling interface of a virtqueue handler as seen by
// the I/O thread's work queue.
type handler interface {
	// turnStart is called when the handler's turn begins.
	turnStart()
	// plan returns the next unit of work for the current turn: a CPU
	// cost and an effect to apply at its end. Returning a nil effect
	// with zero cost ends the turn.
	plan() (cost sim.Time, effect func())
	// label names the handler on timeline turn slices ("tx", "rx").
	label() string
	// bit returns the handler's work-queue bit.
	bit() *workBit
}

// workBit is the work-queue membership every handler embeds, as
// Linux's vhost_work carries VHOST_WORK_QUEUED. queued is set while
// the handler waits in the work queue and cleared when its turn is
// dispatched, so a handler waits in the queue at most once, and a kick
// during its own turn queues it for the next.
type workBit struct{ queued bool }

func (w *workBit) bit() *workBit { return w }

// IOThread is the vhost worker: one host thread draining a FIFO work
// queue of handlers, exactly one turn at a time.
type IOThread struct {
	Name string

	s      *sched.Scheduler
	Thread *sched.Thread
	params Params

	work sim.Ring[handler] // handlers whose queued bit is set

	cur       handler
	inSwitch  bool // the HandlerSwitch overhead chunk is in flight
	curEffect func()
	remaining sim.Time // remaining time of the in-flight chunk
	needWake  bool
	act       activity // what the in-flight effect chunk is doing

	// Profiling contexts (all nil unless EnableProfiling was called).
	profOcc    *profile.Node
	profSwitch *profile.Node
	profActs   [numActivities]*profile.Node

	// tl/track/turnT export handler turns as timeline slices
	// (SetTimeline).
	tl    *trace.Timeline
	track trace.TrackID
	turnT sim.Time

	// Turns counts handler turns.
	Turns uint64

	// Stalls counts injected worker stalls (fault injection; see
	// InjectStall).
	Stalls uint64
}

// NewIOThread creates the worker pinned to the given core.
func NewIOThread(name string, s *sched.Scheduler, core int, params Params) *IOThread {
	t := &IOThread{Name: name, s: s, params: params, track: trace.NoTrack}
	t.Thread = s.NewThread(name, core, 0, t)
	return t
}

// SetTimeline attaches an execution timeline: each handler turn
// becomes a slice on the worker's track. Call during deterministic
// build; a nil timeline is a no-op.
func (t *IOThread) SetTimeline(tl *trace.Timeline) {
	if tl != nil {
		t.tl = tl
		t.track = tl.Track("vhost", t.Name)
	}
}

// EnableProfiling interns the worker's context subtree under its home
// core and installs the charge-time resolver. Call during
// deterministic build, after NewIOThread.
//
//	coreN
//	└── <worker>         (occupant; KindVhost)
//	    ├── switch       (handler dispatch + wakeup overhead)
//	    ├── handler:tx   (TX descriptor copy + wire send)
//	    ├── handler:rx   (wire packet copy into guest buffers)
//	    ├── signal       (guest receive-interrupt injection)
//	    ├── poll         (empty polls and notification race checks)
//	    └── stall        (injected worker stalls)
func (t *IOThread) EnableProfiling(p *profile.Profiler) {
	t.profOcc = p.Core(t.Thread.Core()).ChildKind(t.Name, profile.KindVhost, -1)
	t.profSwitch = t.profOcc.Child("switch")
	t.profActs[actTX] = t.profOcc.Child("handler:tx")
	t.profActs[actRX] = t.profOcc.Child("handler:rx")
	t.profActs[actSignal] = t.profOcc.Child("signal")
	t.profActs[actPoll] = t.profOcc.Child("poll")
	t.profActs[actStall] = t.profOcc.Child("stall")
	t.Thread.Prof = t.profLeaf
}

// profLeaf resolves the worker's current charge context; consulted by
// the scheduler before Ran, while inSwitch/curEffect/act still
// describe the span being charged.
func (t *IOThread) profLeaf() *profile.Node {
	if t.inSwitch {
		return t.profSwitch
	}
	if t.curEffect != nil {
		return t.profActs[t.act]
	}
	return t.profOcc
}

// enqueue appends h to the work queue (idempotent) and wakes the
// thread.
func (t *IOThread) enqueue(h handler) {
	if !t.requeue(h) {
		return
	}
	if t.Thread.State() == sched.Sleeping {
		t.needWake = true
		t.s.Wake(t.Thread)
	} else {
		t.s.Requery(t.Thread)
	}
}

// NextChunk implements sched.WorkSource.
func (t *IOThread) NextChunk() sim.Time {
	for {
		if t.curEffect != nil {
			// An effect chunk is in flight (we were preempted or
			// requeried): its remaining time is managed by Ran. Clamp
			// to the minimum chunk when a preemption landed exactly on
			// the boundary, so the effect still fires.
			return clampChunk(t.remaining)
		}
		if t.inSwitch {
			return clampChunk(t.remaining)
		}
		if t.cur != nil {
			cost, effect := t.cur.plan()
			if effect == nil {
				// Turn over.
				if t.tl != nil {
					t.tl.Slice(t.track, t.cur.label(), t.turnT, t.s.Now())
				}
				t.cur = nil
				continue
			}
			t.curEffect = effect
			t.remaining = cost
			if t.remaining <= 0 {
				t.remaining = 1 // effects always take nonzero time
			}
			return t.remaining
		}
		// Dispatch the next handler turn, or sleep.
		next, ok := t.work.TryPop()
		if !ok {
			return 0
		}
		next.bit().queued = false
		t.cur = next
		t.Turns++
		if t.tl != nil {
			t.turnT = t.s.Now()
		}
		t.inSwitch = true
		t.remaining = t.params.HandlerSwitch
		if t.needWake {
			t.needWake = false
			t.remaining += t.params.WakeCost
		}
		return t.remaining
	}
}

// Ran implements sched.WorkSource.
func (t *IOThread) Ran(d sim.Time) { t.remaining -= d }

// ChunkDone implements sched.WorkSource.
func (t *IOThread) ChunkDone() {
	if t.inSwitch {
		t.inSwitch = false
		if t.cur != nil {
			t.cur.turnStart()
		}
		return
	}
	if eff := t.curEffect; eff != nil {
		t.curEffect = nil
		eff()
	}
}

// InjectStall blocks the worker for d of CPU time: a one-shot handler
// that burns d at the head of the queue, modeling the worker stuck in
// a kernel allocation or host softirq. Work already queued waits
// behind it, exactly as it would behind a stuck vhost worker. A
// non-positive d is a no-op.
func (t *IOThread) InjectStall(d sim.Time) {
	if d <= 0 {
		return
	}
	t.Stalls++
	t.enqueue(&stallHandler{io: t, d: d})
}

// stallHandler burns a fixed amount of worker CPU once.
type stallHandler struct {
	workBit
	io     *IOThread
	d      sim.Time
	burned bool
}

func (h *stallHandler) turnStart() {}

func (h *stallHandler) plan() (sim.Time, func()) {
	if h.burned {
		return 0, nil
	}
	h.burned = true
	h.io.act = actStall
	return h.d, func() {}
}

func (h *stallHandler) label() string { return "stall" }

// requeue appends h to the tail of the work queue unless its queued
// bit says it already waits there, and reports whether it did. A
// handler whose turn ends early puts itself back this way (Algorithm
// 1's "goto schedule"); enqueue also wakes the thread.
func (t *IOThread) requeue(h handler) bool {
	w := h.bit()
	if w.queued {
		return false
	}
	w.queued = true
	t.work.Push(h)
	return true
}

// clampChunk guards a zero remainder after a boundary-exact preemption.
func clampChunk(r sim.Time) sim.Time {
	if r <= 0 {
		return 1
	}
	return r
}
