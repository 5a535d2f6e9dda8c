package sched

import "es2/internal/sim"

// core is one physical CPU with its private runqueue.
type core struct {
	id int
	s  *Scheduler

	// rq holds runnable threads (excluding cur) ordered by (vruntime,
	// seq). It is small (a handful of threads), so a sorted slice beats
	// a tree and is trivially deterministic.
	rq []*Thread

	cur      *Thread
	chunkEvt sim.Handle
	chunkEnd sim.Time // when the armed chunk completes
	// sliceKey is the armed timeslice's expiry and its place in the
	// event order, reserved when the slice opens. The slice timer
	// joins the queue (sliceEvt) only once an armed chunk reaches the
	// expiry; until then slicePending is set. See queueSlice.
	sliceKey     sim.Key
	sliceEvt     sim.Handle
	slicePending bool
	// chunkDoneFn and sliceExpiredFn are the timer callbacks, bound
	// once so arming a timer allocates no method value.
	chunkDoneFn    func()
	sliceExpiredFn func()
	runStart       sim.Time // when cur last started being charged
	curStart       sim.Time // when cur was dispatched (timeline slice start)
	sliceStart     sim.Time // when cur's current timeslice budget opened
	minVr          int64    // floor of vruntime on this core
	dispatching    bool
	needResched    bool
}

// minVruntime returns the smallest plausible vruntime on the core, used
// for wakeup placement.
func (c *core) minVruntime() int64 {
	v := c.minVr
	if c.cur != nil && c.cur.vruntime > v {
		v = c.cur.vruntime
	}
	return v
}

func (c *core) enqueue(t *Thread) {
	// Insertion sort by (vruntime, seq): stable and deterministic.
	i := len(c.rq)
	for i > 0 {
		p := c.rq[i-1]
		if p.vruntime < t.vruntime || (p.vruntime == t.vruntime && p.seq < t.seq) {
			break
		}
		i--
	}
	c.rq = append(c.rq, nil)
	copy(c.rq[i+1:], c.rq[i:])
	c.rq[i] = t
}

// placeWakeup applies CFS wakeup placement: don't let a long sleeper
// monopolize the core; don't let it lose its fair position either. On
// top of the classic latency-wide sleeper bonus, the placement clamps
// the waker's lag against the queue: it may land at most one minimum
// granularity below the most-advanced thread already waiting (the
// EEVDF-style bounded-lag rule). Without the clamp, threads quiesced by
// an outage return with the full vruntime deficit they accumulated
// while idle, and a thread that stayed busy throughout starves for the
// sum of those catch-up credits — tens of milliseconds, exactly when
// recovery needs it running.
func (c *core) placeWakeup(t *Thread) {
	floor := c.minVruntime() - int64(c.s.params.Latency)
	if n := len(c.rq); n > 0 {
		if f := c.rq[n-1].vruntime - int64(c.s.params.MinGranularity); f > floor {
			floor = f
		}
	}
	if t.vruntime < floor {
		t.vruntime = floor
	}
}

func (c *core) dequeueLeftmost() *Thread {
	t := c.rq[0]
	copy(c.rq, c.rq[1:])
	c.rq[len(c.rq)-1] = nil
	c.rq = c.rq[:len(c.rq)-1]
	return t
}

// kick starts dispatching when the core is idle. While the core is
// inside its own scheduling logic, the pending queue is picked up
// naturally, so kick does nothing; preemption decisions are made
// exclusively by maybePreemptFor.
func (c *core) kick() {
	if c.dispatching || c.s.frozen {
		return
	}
	if c.cur == nil && len(c.rq) > 0 {
		c.dispatch()
	}
}

// maybePreemptFor applies the CFS wakeup-preemption check for a newly
// woken thread t against the currently running thread.
func (c *core) maybePreemptFor(t *Thread) {
	if c.cur == nil || c.cur == t {
		return
	}
	gran := int64(c.s.params.WakeupGranularity) * NiceZeroWeight / c.cur.weight
	if c.cur.vruntime-t.vruntime > gran {
		if c.dispatching {
			c.needResched = true
			return
		}
		c.preemptCurrent()
	}
}

// chargeCurrent accounts CPU time consumed by cur since runStart.
func (c *core) chargeCurrent() {
	t := c.cur
	if t == nil {
		return
	}
	now := c.s.eng.Now()
	delta := now - c.runStart
	c.runStart = now
	if delta <= 0 {
		return
	}
	t.sumExec += delta
	if t.weight == NiceZeroWeight {
		// Every vCPU and vhost thread is nice-0: skip the divide.
		t.vruntime += int64(delta)
	} else {
		t.vruntime += int64(delta) * NiceZeroWeight / t.weight
	}
	if t.vruntime > c.minVr {
		c.minVr = t.vruntime
	}
	// Attribute before Ran: the source's mode still describes the span
	// just consumed (Ran/ChunkDone may transition it).
	if t.Prof != nil {
		t.Prof().Add(delta)
	}
	t.Source.Ran(delta)
}

// sliceLength computes the current timeslice for cur. The ±10% jitter
// models the OS noise (interrupts, kernel threads, timer skew) that
// keeps real cores' scheduling phases diffusing instead of freezing
// into pathological alignments.
func (c *core) sliceLength() sim.Time {
	nr := len(c.rq) + 1
	slice := c.s.params.Latency / sim.Time(nr)
	if slice < c.s.params.MinGranularity {
		slice = c.s.params.MinGranularity
	}
	return c.s.rng.Jitter(slice, 0.10)
}

// dispatch picks the next thread and starts it. Must not be re-entered.
func (c *core) dispatch() {
	if c.s.frozen {
		return
	}
	c.dispatching = true
	for {
		c.needResched = false
		if c.cur == nil {
			if len(c.rq) == 0 {
				c.dispatching = false
				return // idle
			}
			next := c.dequeueLeftmost()
			next.state = Running
			c.cur = next
			c.runStart = c.s.eng.Now()
			c.s.ContextSwitches++
			if c.s.tl != nil {
				c.curStart = c.runStart
			}
			if next.wakePending {
				next.wakePending = false
				next.WakeLat.Observe(c.runStart - next.wakeT)
			}
			if next.SchedIn != nil {
				next.SchedIn(c.id)
			}
			c.armSlice()
		}
		// Ask the source for work. This may be a fresh chunk or the
		// continuation after preemption/Requery.
		chunk := c.cur.Source.NextChunk()
		if chunk <= 0 {
			// No work: the thread blocks.
			c.stopCurrent(Sleeping)
			continue
		}
		c.armChunk(chunk)
		// If model code requested rescheduling while we were arming
		// (shouldn't normally happen here), loop.
		if !c.needResched {
			c.dispatching = false
			return
		}
		c.preemptLocked()
	}
}

// armSlice opens a fresh timeslice for cur. The jittered length and the
// slice timer's key are drawn now, but the timer is queued only by
// queueSlice: nearly every thread blocks or is preempted before its
// slice ends, and a timer that never joins the queue costs no push and
// no cancel.
func (c *core) armSlice() {
	now := c.s.eng.Now()
	d := c.sliceLength()
	c.sliceStart = now
	c.sliceKey = c.s.eng.Reserve(now + d)
	c.slicePending = true
}

// queueSlice queues the reserved slice timer once the armed chunk ends
// at or after the expiry. Before that the chunk completes first, and
// the scheduler is back here before the expiry is due. On a tie the
// timer's earlier key fires it first, as if it had been queued when the
// slice opened, so the test is >=.
func (c *core) queueSlice() {
	if c.slicePending && c.chunkEvt.Active() && c.chunkEnd >= c.sliceKey.Time() {
		c.slicePending = false
		c.sliceEvt = c.s.eng.AtKey(c.sliceKey, c.sliceExpiredFn)
	}
}

// resizeSlice re-fits the running thread's timeslice to the current
// runqueue size. CFS recomputes ideal_runtime from nr_running at every
// scheduler tick, so a thread dispatched onto an empty core does not
// keep its full-latency slice once waiters arrive. This event-driven
// model has no periodic tick; the recomputation happens at wakeup — the
// only instant nr grows — and only ever shortens the armed slice.
// Without it, a thread that went on-CPU alone holds the core for the
// whole latency period (24ms) while late-arriving runnable threads
// starve.
func (c *core) resizeSlice() {
	if c.cur == nil || !c.slicePending && !c.sliceEvt.Active() {
		return
	}
	expiry := c.sliceStart + c.sliceLength()
	if expiry >= c.sliceKey.Time() {
		return
	}
	c.sliceEvt.Cancel()
	now := c.s.eng.Now()
	if expiry <= now {
		// Budget already overdrawn under the new occupancy: preempt.
		c.slicePending = false
		if c.dispatching {
			c.needResched = true
			return
		}
		c.preemptCurrent()
		return
	}
	c.sliceKey = c.s.eng.Reserve(expiry)
	c.slicePending = true
	c.queueSlice()
}

// armChunk arms the chunk timer to fire chunk from now. A requery finds
// the timer of the chunk it cut short still queued and re-keys it in
// place; otherwise a new one is pushed. Either way the timer takes the
// key an At would give it.
func (c *core) armChunk(chunk sim.Time) {
	c.chunkEnd = c.s.eng.Now() + chunk
	// Active inlines and Move does not: nearly every chunk finds its
	// timer just fired, and learns so without a call.
	if c.chunkEvt.Active() {
		c.chunkEvt.Move(c.chunkEnd)
	} else {
		c.chunkEvt = c.s.eng.At(c.chunkEnd, c.chunkDoneFn)
	}
	c.queueSlice()
}

// stopCurrent charges cur, fires SchedOut, and transitions it to the
// given state (Runnable re-enqueues it, Sleeping parks it).
func (c *core) stopCurrent(to State) {
	t := c.cur
	c.chargeCurrent()
	if c.s.tl != nil {
		c.s.tl.Slice(c.s.coreTracks[c.id], t.Name, c.curStart, c.s.eng.Now())
	}
	c.chunkEvt.Cancel()
	c.sliceEvt.Cancel()
	c.slicePending = false // a key never queued is simply forgotten
	c.cur = nil
	t.state = to
	if to == Runnable {
		t.seq = c.s.seq
		c.s.seq++
		c.enqueue(t)
	}
	if t.SchedOut != nil {
		t.SchedOut()
	}
}

// preemptCurrent forces the running thread off the CPU and dispatches.
func (c *core) preemptCurrent() {
	if c.cur == nil {
		c.kick()
		return
	}
	c.dispatching = true
	c.preemptLocked()
	c.dispatching = false
	c.dispatch()
}

func (c *core) preemptLocked() {
	if c.cur != nil {
		c.stopCurrent(Runnable)
	}
}

// chunkDone fires when the current chunk ran to completion.
func (c *core) chunkDone() {
	if c.cur == nil {
		return
	}
	c.dispatching = true
	c.chargeCurrent()
	c.cur.Source.ChunkDone()
	c.dispatching = false

	if c.cur == nil {
		// ChunkDone's side effects somehow cleared the CPU; dispatch.
		c.dispatch()
		return
	}
	// Honor any preemption requested during the callback, or by a
	// lower-vruntime waiter if our slice also expired meanwhile.
	if c.needResched {
		c.needResched = false
		c.preemptCurrent()
		return
	}
	c.dispatch()
}

// sliceExpired fires at timeslice end: preempt if anyone is waiting.
func (c *core) sliceExpired() {
	if c.cur == nil {
		return
	}
	if len(c.rq) == 0 {
		// Nobody waiting: keep running, restart the slice clock.
		c.chargeCurrent()
		c.armSlice()
		c.queueSlice()
		return
	}
	c.preemptCurrent()
}

// requeryCurrent cuts the in-flight chunk short and re-consults the
// work source (used when new higher-priority work arrives for a running
// thread, e.g. an interrupt posted to a running vCPU).
func (c *core) requeryCurrent(t *Thread) {
	if c.cur != t {
		return
	}
	if c.dispatching {
		// Already inside scheduling logic; NextChunk will be consulted
		// before it finishes.
		return
	}
	c.chargeCurrent()
	// The cut chunk's timer stays queued: armChunk re-keys it in place.
	c.dispatching = true
	chunk := t.Source.NextChunk()
	if chunk > 0 {
		c.armChunk(chunk)
		c.dispatching = false
		if c.needResched {
			c.needResched = false
			c.preemptCurrent()
		}
		return
	}
	c.stopCurrent(Sleeping)
	c.dispatching = false
	c.dispatch()
}
