package vmm

import "es2/internal/sim"

// CostModel centralizes every hardware timing constant in the
// simulator. The values are calibrated so that the paper's baseline
// measurements are reproduced in magnitude (see EXPERIMENTS.md for the
// calibration table); everything else in the repository derives its
// timing from this one struct.
//
// All exit costs are the full guest-visible stall: VM exit transition +
// hypervisor handling + VM entry transition. The paper cites "hundreds
// or thousands of cycles" for the bare transition [18], to which KVM's
// handler work and the indirect cache-pollution cost add; low
// single-digit microseconds per exit on the paper's 2.3 GHz Xeon is the
// established ballpark (ELI reports ~1-2k cycles bare, 3-8k with
// handling).
type CostModel struct {
	// IOInstrExit is the cost of an I/O-instruction exit: the virtio
	// kick trapped and routed to an ioeventfd. This is KVM's cheapest
	// I/O exit path (no userspace round trip).
	IOInstrExit sim.Time
	// ExtIntrExit is the cost of an external-interrupt exit, the kick
	// IPI that forces a running vCPU out so a virtual interrupt can be
	// injected at the following entry.
	ExtIntrExit sim.Time
	// APICAccessExit is the cost of the trap-and-emulate EOI write.
	APICAccessExit sim.Time
	// OtherExit is the cost of a background exit (EPT violation etc.).
	OtherExit sim.Time
	// IPILatency is the physical inter-processor-interrupt flight time
	// from the signaling core to the target core.
	IPILatency sim.Time
	// PINotifyLatency is the posted-interrupt notification flight time
	// (an IPI with the special notification vector, processed entirely
	// in hardware/microcode on the target).
	PINotifyLatency sim.Time
	// IRQEntryExit is the guest-side interrupt prologue + epilogue
	// (vector dispatch through the IDT, register save/restore, the EOI
	// write instruction itself).
	IRQEntryExit sim.Time
	// TimerTickPeriod is the guest kernel tick. 4ms = CONFIG_HZ_250,
	// the Ubuntu 14.04 default. Zero disables guest timer ticks.
	TimerTickPeriod sim.Time
	// OtherExitPeriod is the mean interval between background exits
	// while a vCPU runs (EPT violations, MSR traps, interrupt
	// windows...). Zero disables them. When posted interrupts are
	// enabled the effective period is doubled: APICv removes the
	// interrupt-window and TPR-related components of this background.
	OtherExitPeriod sim.Time
}

// DefaultCosts returns the calibrated cost model. The calibration
// anchors (paper Table I / Fig. 5) are reproduced with these values:
// a TCP-send baseline around 120-130k exits/s at ~70% time-in-guest.
func DefaultCosts() CostModel {
	return CostModel{
		IOInstrExit:     2200 * sim.Nanosecond,
		ExtIntrExit:     2600 * sim.Nanosecond,
		APICAccessExit:  1900 * sim.Nanosecond,
		OtherExit:       2500 * sim.Nanosecond,
		IPILatency:      400 * sim.Nanosecond,
		PINotifyLatency: 250 * sim.Nanosecond,
		IRQEntryExit:    700 * sim.Nanosecond,
		TimerTickPeriod: 4 * sim.Millisecond,
		OtherExitPeriod: 600 * sim.Microsecond,
	}
}
