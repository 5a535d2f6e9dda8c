package vmm

import (
	"fmt"

	"es2/internal/apic"
	"es2/internal/profile"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/trace"
)

// chunkKind distinguishes what a vCPU's thread is executing.
type chunkKind uint8

const (
	kindNone  chunkKind = iota
	kindGuest           // non-root mode: guest code
	kindHost            // root mode: hypervisor handling a VM exit
)

// hostInterval is one queued VM-exit handling span.
type hostInterval struct {
	reason    ExitReason
	remaining sim.Time
	onDone    func()
	start     sim.Time // when handling began (timeline slice; traced runs only)
}

// VCPU is a virtual CPU: a host schedulable thread that alternates
// between guest-mode work (its Task queues) and host-mode work (VM exit
// handling intervals). It implements sched.WorkSource.
type VCPU struct {
	VM *VM
	ID int
	// Thread is the host thread backing this vCPU.
	Thread *sched.Thread

	// VAPIC is the virtual APIC state: the software-emulated Local-APIC
	// in the baseline, the hardware vAPIC page under posted interrupts.
	VAPIC apic.LocalAPIC
	// PID is the posted-interrupt descriptor (used when the KVM has
	// UsePI set).
	PID apic.PIDescriptor

	// Queued work is held by value. hostCur is the exit being handled
	// while inExit is set; hostQ holds the exits waiting behind it.
	// The running guest task is the head of tasks[curPrio] while mode
	// is kindGuest: only NextChunk changes a queue's head, and it
	// re-picks curPrio when it does.
	hostCur hostInterval
	inExit  bool
	hostQ   sim.Ring[hostInterval]
	tasks   [numPrios]sim.Ring[taskSlot]
	curPrio Prio
	mode    chunkKind

	// GuestTime and HostTime accumulate non-root and root mode CPU
	// consumption; TIG = GuestTime / (GuestTime + HostTime).
	GuestTime sim.Time
	HostTime  sim.Time

	// IRQAccepted counts virtual interrupts delivered to this vCPU
	// (ES2's redirection balances on this). IRQCompleted counts EOIs.
	IRQAccepted  uint64
	IRQCompleted uint64

	schedInHooks  []func(coreID int)
	schedOutHooks []func()

	// needEntrySync marks that the next transition to guest execution
	// is a genuine VM entry (after a sched-in or after exit handling),
	// where pending PIR bits must be synchronized. Mid-guest task
	// boundaries are not VM entries: there, only the notification IPI
	// can sync.
	needEntrySync bool

	// irqStamps carries the per-vector injection timestamps for the
	// interrupt-delivery latency histograms and the causal analyzer.
	// It is allocated at the first stamp, so it stays nil unless
	// K.IRQLatPosted/IRQLatEmulated or K.Causal are set.
	irqStamps *apic.VectorStamps

	// lastSchedIn is the instant of the most recent sched-in, and
	// lastInject* snapshot the injection stamp consumed by the current
	// startHandler — together they let an IRQ handler split the
	// injection→entry span into wakeup-to-run and delivery (see
	// internal/causal).
	lastSchedIn    sim.Time
	lastInjectT    sim.Time
	lastInjectMech apic.StampMech
	lastInjectOK   bool

	// track is this vCPU's timeline track (NoTrack when no timeline).
	track trace.TrackID

	// Profiling contexts, interned at build time when K.Prof is set
	// (all nil otherwise; see profile.go in this package).
	profOcc  *profile.Node
	profPrio [numPrios]*profile.Node
	profExit [NumExitReasons]*profile.Node
}

// newVCPU wires a vCPU to its host thread on the given core.
func newVCPU(vm *VM, id, coreID int) *VCPU {
	v := &VCPU{VM: vm, ID: id, needEntrySync: true, track: trace.NoTrack}
	if tl := vm.K.Timeline; tl != nil {
		v.track = tl.Track(vm.Name, fmt.Sprintf("vcpu%d", id))
	}
	v.Thread = vm.K.Sched.NewThread(fmt.Sprintf("%s/vcpu%d", vm.Name, id), coreID, 0, v)
	v.Thread.SchedIn = v.schedIn
	v.Thread.SchedOut = v.schedOut
	if vm.K.Prof != nil {
		v.enableProfiling(vm.K.Prof, coreID)
	}
	return v
}

// AddSchedInHook registers fn to run whenever the vCPU thread is
// scheduled onto a core (the kvm_sched_in preemption notifier).
func (v *VCPU) AddSchedInHook(fn func(coreID int)) {
	v.schedInHooks = append(v.schedInHooks, fn)
}

// AddSchedOutHook registers fn to run whenever the vCPU thread is
// descheduled (the kvm_sched_out preemption notifier).
func (v *VCPU) AddSchedOutHook(fn func()) {
	v.schedOutHooks = append(v.schedOutHooks, fn)
}

func (v *VCPU) schedIn(coreID int) {
	// VM entry housekeeping: posted interrupts pending in the PIR will
	// be synced by the next NextChunk; clear suppress-notification.
	v.PID.SetSuppress(false)
	v.needEntrySync = true
	v.lastSchedIn = v.VM.K.Eng.Now()
	for _, fn := range v.schedInHooks {
		fn(coreID)
	}
}

func (v *VCPU) schedOut() {
	v.PID.SetSuppress(true)
	for _, fn := range v.schedOutHooks {
		fn()
	}
}

// Online reports whether the vCPU thread currently owns a core.
func (v *VCPU) Online() bool { return v.Thread.State() == sched.Running }

// Track returns the vCPU's timeline track (NoTrack without a timeline).
func (v *VCPU) Track() trace.TrackID { return v.track }

// InGuestMode reports whether the vCPU is, right now, executing guest
// code in non-root mode on a core.
func (v *VCPU) InGuestMode() bool {
	return v.Thread.State() == sched.Running && v.mode == kindGuest
}

// EnqueueTask adds a copy of the guest work *t to the vCPU and pokes
// the scheduler so higher-priority work preempts promptly. The vCPU
// keeps no reference to t.
func (v *VCPU) EnqueueTask(t *Task) {
	// Write the task into its slot field by field: a struct copy would
	// read *t, just built by the caller, with wider loads than the
	// stores that wrote it and stall on them.
	slot := v.tasks[t.Prio].PushSlot()
	slot.name, slot.remaining, slot.onComplete = t.Name, t.Remaining, t.OnComplete
	v.poke()
}

// current returns the running guest task; call it only while mode is
// kindGuest.
func (v *VCPU) current() *taskSlot { return v.tasks[v.curPrio].Front() }

// BeginExit queues a VM exit of the given reason on this vCPU: the
// thread will spend the cost-model-defined interval in root mode before
// returning to guest execution. onDone (optional) runs when the
// hypervisor finishes handling the exit — e.g. signaling an ioeventfd.
//
// BeginExit must be called from this vCPU's own execution (guest code
// in task callbacks) or from KVM delivery paths that immediately poke.
func (v *VCPU) BeginExit(reason ExitReason, onDone func()) {
	cost := v.VM.K.exitCost(reason)
	v.hostQ.Push(hostInterval{reason: reason, remaining: cost, onDone: onDone})
	v.VM.Exits.Inc(int(reason))
}

// poke makes the scheduler re-evaluate this vCPU: wake it if sleeping,
// requery its work if running.
func (v *VCPU) poke() {
	switch v.Thread.State() {
	case sched.Sleeping:
		v.VM.K.Sched.Wake(v.Thread)
	case sched.Running:
		v.VM.K.Sched.Requery(v.Thread)
	}
}

// NextChunk implements sched.WorkSource. Priority order mirrors real
// execution: in-flight exit handling, queued exits, interrupt delivery
// at VM entry, then guest work by priority.
func (v *VCPU) NextChunk() sim.Time {
	for {
		if v.inExit {
			v.mode = kindHost
			return clampChunk(v.hostCur.remaining)
		}
		if v.hostQ.Len() > 0 {
			v.hostCur, v.inExit = v.hostQ.Pop(), true
			if v.VM.K.Timeline != nil {
				v.hostCur.start = v.VM.K.Eng.Now()
			}
			continue
		}
		// VM entry: sync any posted interrupts into the vAPIC page.
		// Only genuine entries sync — ordinary guest task boundaries
		// stay in non-root mode, where only the notification IPI can
		// trigger the hardware sync.
		if v.needEntrySync {
			v.needEntrySync = false
			if v.VM.K.UsePI && v.PID.HasPending() {
				v.PID.Sync(&v.VAPIC)
			}
		}
		// Deliver the highest-priority pending virtual interrupt.
		if vec, ok := v.VAPIC.PendingIRQ(); ok {
			v.startHandler(vec)
			continue
		}
		for p := range v.tasks {
			if v.tasks[p].Len() > 0 {
				v.curPrio = Prio(p)
				v.mode = kindGuest
				return clampChunk(v.tasks[p].Front().remaining)
			}
		}
		v.mode = kindNone
		return 0
	}
}

// clampChunk guards against a zero remainder: a preemption landing
// exactly on a chunk boundary charges the work to completion without
// running its ChunkDone; returning the minimum chunk lets the
// completion fire instead of being mistaken for "no work: block".
func clampChunk(r sim.Time) sim.Time {
	if r <= 0 {
		return 1
	}
	return r
}

// irqNames holds each vector's interrupt-handler task name, which is
// also its profiler leaf and timeline instant name. Building them once
// keeps a string format off every interrupt dispatch.
var irqNames = func() (names [apic.NumVectors]string) {
	for v := range names {
		names[v] = fmt.Sprintf("irq%#x", apic.Vector(v))
	}
	return names
}()

// startHandler accepts vector vec and queues its guest interrupt
// handler at PrioIRQ.
func (v *VCPU) startHandler(vec apic.Vector) {
	v.VAPIC.Accept(vec)
	if k := v.VM.K; k.IRQLatPosted != nil || k.Causal != nil {
		if t0, mech, ok := v.irqStamps.Take(vec); ok {
			if k.IRQLatPosted != nil {
				d := k.Eng.Now() - t0
				if mech == apic.StampPosted {
					k.IRQLatPosted.Observe(d)
				} else {
					k.IRQLatEmulated.Observe(d)
				}
			}
			v.lastInjectT, v.lastInjectMech, v.lastInjectOK = t0, mech, true
		} else {
			v.lastInjectOK = false
		}
	}
	v.IRQAccepted++
	v.VM.noteAccepted(v, vec)
	h := v.VM.handler(vec)
	var cost sim.Time
	var fn func()
	if h != nil {
		cost, fn = h(v)
	}
	// Interrupt handlers nest LIFO: this one runs ahead of any handler
	// it interrupted.
	v.tasks[PrioIRQ].PushFront(taskSlot{
		name:       irqNames[vec],
		remaining:  v.VM.K.Cost.IRQEntryExit + cost,
		onComplete: fn,
		irq:        true,
	})
}

// stamps returns the vCPU's injection stamps, allocating them at the
// first injection an observer asks to have stamped.
func (v *VCPU) stamps() *apic.VectorStamps {
	if v.irqStamps == nil {
		v.irqStamps = new(apic.VectorStamps)
	}
	return v.irqStamps
}

// LastInjection returns the injection stamp consumed by the current
// interrupt-handler dispatch: the APIC injection instant and delivery
// mechanism. Meaningful only inside an IDT handler invocation, and
// only while injection stamps are enabled (telemetry or causal runs).
func (v *VCPU) LastInjection() (t sim.Time, mech apic.StampMech, ok bool) {
	return v.lastInjectT, v.lastInjectMech, v.lastInjectOK
}

// LastSchedIn returns the instant this vCPU's thread last went
// on-core.
func (v *VCPU) LastSchedIn() sim.Time { return v.lastSchedIn }

// completeIRQ performs the EOI write at handler exit. Without posted
// interrupts this is the trap-and-emulate APIC access — the paper's
// "interrupt completion" exit.
func (v *VCPU) completeIRQ() {
	vec := v.VAPIC.EOI()
	v.IRQCompleted++
	if v.VM.IsDeviceVector(vec) {
		v.VM.DevIRQCompleted.Inc()
	}
	if !v.VM.K.UsePI {
		v.BeginExit(ExitAPICAccess, nil)
	}
}

// Ran implements sched.WorkSource: charge consumed CPU to the mode and
// to the in-flight work item.
func (v *VCPU) Ran(d sim.Time) {
	switch v.mode {
	case kindHost:
		v.HostTime += d
		if v.inExit {
			v.hostCur.remaining -= d
		}
	case kindGuest:
		v.GuestTime += d
		v.current().remaining -= d
	}
}

// SetPIAvailable marks this vCPU's posted-interrupt facility working or
// broken (fault injection). On a break, any vectors already latched in
// the PIR are flushed into the virtual APIC immediately — the hardware
// can no longer be trusted to sync them at the next entry, and losing
// them would wedge the guest.
func (v *VCPU) SetPIAvailable(ok bool) {
	if ok == v.PID.Available() {
		return
	}
	v.PID.SetAvailable(ok)
	if !ok && v.PID.HasPending() {
		v.PID.Sync(&v.VAPIC)
		v.poke()
	}
}

// ChunkDone implements sched.WorkSource.
func (v *VCPU) ChunkDone() {
	switch v.mode {
	case kindHost:
		hi, ok := v.hostCur, v.inExit
		v.hostCur, v.inExit = hostInterval{}, false
		v.mode = kindNone
		v.needEntrySync = true // exit handling done: next guest run is a VM entry
		if tl := v.VM.K.Timeline; tl.Active() && ok {
			tl.Slice(v.track, "exit:"+hi.reason.String(), hi.start, v.VM.K.Eng.Now())
		}
		if ok && hi.onDone != nil {
			hi.onDone()
		}
	case kindGuest:
		v.mode = kindNone
		q := &v.tasks[v.curPrio]
		if q.Len() == 0 {
			panic("vmm: completed task is not at its queue head")
		}
		t := q.Front()
		done, irq := t.onComplete, t.irq
		q.Discard()
		if done != nil {
			done()
		}
		if irq {
			v.completeIRQ()
		}
	}
}

// TIG returns this vCPU's time-in-guest fraction (1 when it never ran).
func (v *VCPU) TIG() float64 {
	total := v.GuestTime + v.HostTime
	if total == 0 {
		return 1
	}
	return float64(v.GuestTime) / float64(total)
}

// ResetStats zeroes the accumulated time and interrupt counters.
func (v *VCPU) ResetStats() {
	v.GuestTime, v.HostTime = 0, 0
	v.IRQAccepted, v.IRQCompleted = 0, 0
}

// startBackgroundExits arms the Poisson background of miscellaneous
// exits (EPT violations etc.) defined by the cost model.
func (v *VCPU) startBackgroundExits() {
	k := v.VM.K
	period := k.Cost.OtherExitPeriod
	if period == 0 {
		return
	}
	if k.UsePI {
		period *= 2 // APICv removes interrupt-window/TPR background exits
	}
	// Both callbacks are bound once, so the timer allocates nothing.
	var arm func()
	fire := func() {
		if v.InGuestMode() {
			v.BeginExit(ExitOther, nil)
			v.poke()
		}
		arm()
	}
	arm = func() {
		d := k.rng.ExpDuration(period)
		if d < sim.Microsecond {
			d = sim.Microsecond
		}
		k.Eng.After(d, fire)
	}
	arm()
}
