// Package sched implements the host CPU scheduling substrate: physical
// cores multiplexed among schedulable threads by a weighted-fair
// scheduler in the style of the Linux Completely Fair Scheduler (CFS).
//
// vCPU threads and vhost I/O threads are both ordinary threads here,
// exactly as they are ordinary tasks under KVM. The scheduler exposes
// preemption notifiers (the kvm_sched_in / kvm_sched_out analogues)
// that ES2's SchedWatcher uses to maintain per-VM online/offline vCPU
// lists.
//
// # Execution model
//
// A Thread draws CPU work from its WorkSource in chunks. The scheduler
// charges consumed time via Ran (so sources can account guest-mode vs
// host-mode time), may preempt a thread mid-chunk (the source simply
// sees Ran calls that do not add up to a full chunk before the next
// NextChunk), and treats NextChunk() == 0 as "no runnable work: block".
package sched

import (
	"fmt"

	"es2/internal/metrics"
	"es2/internal/profile"
	"es2/internal/sim"
	"es2/internal/trace"
)

// WorkSource supplies CPU work to a thread. All methods are invoked by
// the scheduler from engine events.
type WorkSource interface {
	// NextChunk returns the length of the next span of CPU work the
	// thread would execute if given the CPU now. Returning 0 blocks the
	// thread (it sleeps until Scheduler.Wake). The source must be
	// prepared for NextChunk to be called again without an intervening
	// ChunkDone: that means the previous chunk was cut short by
	// preemption or by Requery, and the time actually consumed has
	// already been reported through Ran.
	NextChunk() sim.Time
	// Ran reports that the thread consumed d nanoseconds of CPU.
	Ran(d sim.Time)
	// ChunkDone reports that the chunk most recently returned by
	// NextChunk ran to completion. The source may wake other threads,
	// queue more work, or leave itself with no work (blocking on the
	// next NextChunk).
	ChunkDone()
}

// Params are the scheduler tunables, mirroring CFS defaults for a
// machine of this core count.
type Params struct {
	// Latency is the scheduling period within which every runnable
	// thread on a core should run once (CFS sched_latency).
	Latency sim.Time
	// MinGranularity bounds the slice from below (CFS min_granularity).
	MinGranularity sim.Time
	// WakeupGranularity limits wakeup preemption: a waking thread
	// preempts only if its vruntime is behind the current thread's by
	// more than this (CFS wakeup_granularity).
	WakeupGranularity sim.Time
}

// DefaultParams returns the CFS defaults used by the paper's testbed
// kernel (4.2) for an 8-core machine: 6ms*(1+log2(8))/4... in practice
// sched_latency 24ms, min_gran 3ms, wakeup_gran 4ms at factor 4. We use
// the canonical base values scaled by factor 4 (ilog2(8 cores)+1 = 4).
func DefaultParams() Params {
	return Params{
		Latency:           24 * sim.Millisecond,
		MinGranularity:    3 * sim.Millisecond,
		WakeupGranularity: 4 * sim.Millisecond,
	}
}

// State is a thread's scheduling state.
type State uint8

const (
	// Sleeping threads are blocked waiting for a Wake.
	Sleeping State = iota
	// Runnable threads wait on a core's runqueue.
	Runnable
	// Running threads currently own a core.
	Running
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Sleeping:
		return "sleeping"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// NiceZeroWeight is the CFS load weight of a nice-0 task.
const NiceZeroWeight = 1024

// Thread is a host-schedulable entity (a vCPU thread or a vhost I/O
// thread).
type Thread struct {
	Name   string
	Source WorkSource

	// SchedIn, if non-nil, is invoked when the thread is about to start
	// running on a core (the kvm_sched_in preemption notifier).
	SchedIn func(coreID int)
	// SchedOut, if non-nil, is invoked immediately after the thread
	// stops running (the kvm_sched_out preemption notifier).
	SchedOut func()
	// Prof, if non-nil, resolves the thread's current profiling context
	// (the leaf node describing what it is doing right now). It is
	// consulted at every charge point, before Ran, so the owning model's
	// mode/state still reflects the span being charged. Returning nil
	// drops the charge from the profile (never done by the built-in
	// sources). Purely observational: must not mutate model state.
	Prof func() *profile.Node
	// WakeLat, if non-nil (telemetry runs), receives the wakeup-to-run
	// delay of every Sleeping→Running transition of this thread.
	// Purely observational.
	WakeLat *metrics.LogHistogram

	weight   int64
	vruntime int64 // weighted virtual runtime, ns at nice-0 scale
	sumExec  sim.Time
	state    State
	home     int // core index this thread is placed on
	seq      uint64

	// wakeT/wakePending track the last Sleeping->Runnable transition
	// for the WakeLat spectrum (set only when WakeLat is).
	wakeT       sim.Time
	wakePending bool

	s *Scheduler
}

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Core returns the core index the thread is placed on.
func (t *Thread) Core() int { return t.home }

// SumExec returns the total CPU time the thread has consumed.
func (t *Thread) SumExec() sim.Time { return t.sumExec }

// Vruntime returns the thread's current weighted virtual runtime.
func (t *Thread) Vruntime() int64 { return t.vruntime }

// Scheduler multiplexes threads over a fixed set of cores. Threads are
// pinned to the core they were added on (no load balancing): the
// paper's experiments pin vCPUs and vhost threads explicitly, and fixed
// placement keeps runs deterministic.
type Scheduler struct {
	eng    *sim.Engine
	params Params
	cores  []*core
	seq    uint64
	rng    *sim.Rand

	// tl/coreTracks are the timeline hooks installed by SetTimeline;
	// nil/empty (and cost-free) when no timeline is recorded.
	tl         *trace.Timeline
	coreTracks []trace.TrackID

	// ContextSwitches counts thread switches across all cores.
	ContextSwitches uint64

	// frozen halts all dispatching (whole-host outage injection).
	frozen bool
}

// New creates a scheduler managing nCores cores.
func New(eng *sim.Engine, nCores int, params Params) *Scheduler {
	if nCores <= 0 {
		panic("sched: need at least one core")
	}
	s := &Scheduler{eng: eng, params: params, rng: eng.Rand().Fork()}
	for i := 0; i < nCores; i++ {
		c := &core{id: i, s: s}
		c.chunkDoneFn, c.sliceExpiredFn = c.chunkDone, c.sliceExpired
		s.cores = append(s.cores, c)
	}
	return s
}

// NumCores returns the number of cores.
func (s *Scheduler) NumCores() int { return len(s.cores) }

// SetTimeline attaches an execution timeline: each continuous run of a
// thread on a core becomes a slice on the timeline's per-core tracks.
// Call during deterministic build, before the simulation runs; a nil
// timeline is a no-op.
func (s *Scheduler) SetTimeline(tl *trace.Timeline) {
	if tl != nil {
		s.tl = tl
		s.coreTracks = make([]trace.TrackID, len(s.cores))
		for i := range s.cores {
			s.coreTracks[i] = tl.Track("cores", fmt.Sprintf("core%d", i))
		}
	}
}

// NewThread creates a thread with the given nice-0-relative weight
// (1024 = nice 0) pinned to core. The thread starts Sleeping; call Wake
// to make it runnable.
func (s *Scheduler) NewThread(name string, coreID int, weight int64, src WorkSource) *Thread {
	if coreID < 0 || coreID >= len(s.cores) {
		panic(fmt.Sprintf("sched: core %d out of range", coreID))
	}
	if weight <= 0 {
		weight = NiceZeroWeight
	}
	if src == nil {
		panic("sched: nil WorkSource")
	}
	t := &Thread{Name: name, Source: src, weight: weight, home: coreID, state: Sleeping, s: s}
	return t
}

// Wake makes a sleeping thread runnable on its home core, applying the
// CFS wakeup placement and preemption rules. Waking a runnable or
// running thread is a no-op, matching try_to_wake_up semantics.
func (s *Scheduler) Wake(t *Thread) {
	if t.state != Sleeping {
		return
	}
	c := s.cores[t.home]
	c.placeWakeup(t)
	t.state = Runnable
	if t.WakeLat != nil {
		t.wakeT = s.eng.Now()
		t.wakePending = true
	}
	t.seq = s.seq
	s.seq++
	c.enqueue(t)
	c.maybePreemptFor(t)
	c.resizeSlice()
	c.kick()
}

// Requery tells the scheduler that t's pending work changed (for
// example, an interrupt was queued to a running vCPU). If t is
// currently running, its in-flight chunk is cut short and NextChunk is
// consulted again immediately; otherwise it is a no-op (the new work is
// naturally picked up at the next dispatch). Requery on a sleeping
// thread does not wake it — use Wake.
func (s *Scheduler) Requery(t *Thread) {
	if t.state != Running {
		return
	}
	c := s.cores[t.home]
	c.requeryCurrent(t)
}

// RunnableCount returns the number of runnable+running threads on core.
func (s *Scheduler) RunnableCount(coreID int) int {
	c := s.cores[coreID]
	n := len(c.rq)
	if c.cur != nil {
		n++
	}
	return n
}

// Freeze halts dispatching on every core: the running thread on each
// core is preempted back to its runqueue (a clean SchedOut, so
// watchers and profilers stay consistent) and nothing runs until
// Unfreeze. Wakeups and requeries during the freeze are accepted and
// pile up runnable. This models a whole-host outage — crash or hard
// freeze — at the CPU level; it does not touch thread state beyond the
// preemption, so the host recovers warm.
func (s *Scheduler) Freeze() {
	if s.frozen {
		return
	}
	s.frozen = true
	for _, c := range s.cores {
		if c.cur != nil {
			c.preemptCurrent()
		}
	}
}

// Unfreeze resumes dispatching and kicks every core so piled-up
// runnable threads start immediately.
func (s *Scheduler) Unfreeze() {
	if !s.frozen {
		return
	}
	s.frozen = false
	for _, c := range s.cores {
		c.kick()
	}
}

// Now returns the scheduler's engine clock (convenience for sources).
func (s *Scheduler) Now() sim.Time { return s.eng.Now() }

// Engine returns the underlying simulation engine.
func (s *Scheduler) Engine() *sim.Engine { return s.eng }
