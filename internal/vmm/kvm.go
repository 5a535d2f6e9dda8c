package vmm

import (
	"es2/internal/apic"
	"es2/internal/causal"
	"es2/internal/metrics"
	"es2/internal/profile"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/trace"
)

// MSIRouter intercepts device-interrupt routing, the kvm_set_msi_irq
// hook that ES2's intelligent interrupt redirection plugs into.
// Returning nil keeps the affinity-selected destination.
type MSIRouter interface {
	Route(vm *VM, msi apic.MSIMessage) *VCPU
}

// KVM is the hypervisor: it owns the host scheduler and delivers
// virtual interrupts by one of two paths, software-emulated APIC
// injection (baseline) or hardware posted interrupts (UsePI).
type KVM struct {
	Eng   *sim.Engine
	Sched *sched.Scheduler
	Cost  CostModel
	// UsePI selects the posted-interrupt delivery path (exit-less
	// delivery and completion).
	UsePI bool
	// Router, when non-nil, intercepts MSI routing (ES2 redirection).
	Router MSIRouter
	// Timeline, when non-nil, receives per-vCPU exit slices and
	// interrupt-delivery instants. Set before creating VMs so vCPU
	// tracks register in deterministic build order.
	Timeline *trace.Timeline
	// Prof, when non-nil, receives exact CPU attribution for every
	// vCPU (guest task vs. exit handling by reason). Set before
	// creating VMs so contexts intern in deterministic build order.
	Prof *profile.Profiler
	// IRQLatPosted / IRQLatEmulated, when non-nil (telemetry runs),
	// record the interrupt-delivery latency — APIC injection to guest
	// handler entry — split by delivery path. Both are set together;
	// nil costs nothing.
	IRQLatPosted   *metrics.LogHistogram
	IRQLatEmulated *metrics.LogHistogram

	// Causal, when non-nil, is the host's event-path probe: injection
	// stamps are kept even without telemetry, and the guest layers
	// stamp chains and spans through it. Purely observational; nil
	// costs nothing.
	Causal *causal.Probe

	rng *sim.Rand
	vms []*VM

	// piNotify and ipiKick carry the posted path's notification IPI and
	// the emulated path's kick IPI to their target vCPU. Both latencies
	// are cost-model constants, so send instants never decrease.
	piNotify *sim.DelayLine[*VCPU]
	ipiKick  *sim.DelayLine[*VCPU]

	// PIFallbacks counts deliveries that wanted the posted path but
	// fell back to emulated injection because the target vCPU's PI
	// facility was unavailable (fault injection).
	PIFallbacks uint64
}

// NewKVM creates the hypervisor on the given engine and scheduler.
func NewKVM(eng *sim.Engine, s *sched.Scheduler, cost CostModel) *KVM {
	k := &KVM{Eng: eng, Sched: s, Cost: cost, rng: eng.Rand().Fork()}
	k.piNotify = sim.NewDelayLine(eng, k.notified)
	k.ipiKick = sim.NewDelayLine(eng, k.kicked)
	return k
}

// VMs returns all created VMs.
func (k *KVM) VMs() []*VM { return k.vms }

func (k *KVM) exitCost(r ExitReason) sim.Time {
	switch r {
	case ExitIOInstruction:
		return k.Cost.IOInstrExit
	case ExitExternalInterrupt:
		return k.Cost.ExtIntrExit
	case ExitAPICAccess:
		return k.Cost.APICAccessExit
	default:
		return k.Cost.OtherExit
	}
}

// InjectMSI delivers a device MSI to a VM, applying interrupt routing
// (guest affinity or the installed Router) and then the configured
// delivery path. This is the entry point back-end devices use to raise
// virtual interrupts.
func (k *KVM) InjectMSI(vm *VM, msi apic.MSIMessage) {
	target := vm.VCPUs[msi.Dest]
	if k.Router != nil {
		if t := k.Router.Route(vm, msi); t != nil {
			target = t
		}
	}
	k.DeliverLocal(target, msi.Vector)
}

// DeliverLocal delivers vector vec directly to the given vCPU without
// routing (used for per-vCPU interrupts such as the local timer, and by
// InjectMSI after routing).
func (k *KVM) DeliverLocal(v *VCPU, vec apic.Vector) {
	stamp := k.IRQLatPosted != nil || k.Causal != nil
	if k.UsePI {
		if v.PID.Available() {
			if stamp {
				v.stamps().Mark(vec, apic.StampPosted, k.Eng.Now())
			}
			k.postInterrupt(v, vec)
			return
		}
		// Graceful degradation: the PI facility is down for this vCPU,
		// so deliver through the emulated LAPIC until it recovers.
		k.PIFallbacks++
	}
	if stamp {
		v.stamps().Mark(vec, apic.StampEmulated, k.Eng.Now())
	}
	k.injectEmulated(v, vec)
}

// postInterrupt implements the PI path: post to the PIR; when the
// target is executing guest code, a notification IPI triggers the
// hardware sync + exit-less delivery. Otherwise the PIR is synced at
// the next VM entry.
func (k *KVM) postInterrupt(v *VCPU, vec apic.Vector) {
	if v.PID.Post(vec) {
		k.piNotify.After(k.Cost.PINotifyLatency, v)
	}
	if v.Thread.State() == sched.Sleeping {
		k.Sched.Wake(v.Thread)
	}
}

// notified is the PI notification IPI landing on v's core.
func (k *KVM) notified(v *VCPU) {
	if v.InGuestMode() {
		v.PID.Sync(&v.VAPIC)
		v.poke()
	}
	// Not in guest mode: the posted bits stay in the PIR and are
	// synchronized at the next VM entry.
}

// injectEmulated implements the baseline path through the
// software-emulated Local-APIC: latch the IRR; if the target is in
// guest mode it must be kicked out with an IPI (an External Interrupt
// exit) so the interrupt can be injected at the following VM entry.
// The guest handler's EOI will then trap (APIC Access exit).
func (k *KVM) injectEmulated(v *VCPU, vec apic.Vector) {
	v.VAPIC.RequestIRQ(vec)
	switch {
	case v.InGuestMode():
		k.ipiKick.After(k.Cost.IPILatency, v)
	case v.Thread.State() == sched.Sleeping:
		k.Sched.Wake(v.Thread)
	default:
		// Runnable (descheduled) or already handling an exit: the
		// pending interrupt is injected at the next VM entry with no
		// dedicated exit — this is why the paper's Table I shows fewer
		// delivery exits than completion exits.
	}
}

// kicked is the emulated path's kick IPI landing on v's core. The kick
// only causes an exit if the vCPU is still in guest mode when the IPI
// lands; it may have exited for another reason meanwhile (then
// injection piggybacks on that exit's VM entry, costing nothing extra).
func (k *KVM) kicked(v *VCPU) {
	if v.InGuestMode() {
		v.BeginExit(ExitExternalInterrupt, nil)
		v.poke()
	}
}
