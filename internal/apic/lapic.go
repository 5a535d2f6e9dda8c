package apic

import "fmt"

// LocalAPIC models the interrupt acceptance state of one (v)CPU's local
// APIC: the Interrupt Request Register of pending vectors and the
// In-Service Register of vectors whose handlers are running. The same
// model serves three roles in the simulator:
//
//   - the software-emulated Local-APIC that KVM maintains per vCPU in
//     the baseline configuration (every EOI traps);
//   - the hardware virtual-APIC page used by Posted-Interrupt (EOI is
//     exit-less, IRR is filled by PIR sync);
//   - the physical Local-APIC of each host core.
type LocalAPIC struct {
	irr Bitmap256
	isr Bitmap256

	// Accepted counts vectors moved from IRR to in-service, Completed
	// counts EOIs; their difference is the in-service depth.
	Accepted  uint64
	Completed uint64
}

// RequestIRQ latches vector v as pending. It reports whether the vector
// was newly latched (false means it was already pending and the
// interrupt coalesced, which is real APIC behaviour).
func (l *LocalAPIC) RequestIRQ(v Vector) bool { return l.irr.Set(v) }

// PendingIRQ reports the highest pending vector that has strictly higher
// priority class than the highest in-service vector, mirroring the
// processor-priority acceptance rule. ok is false when nothing is
// deliverable.
func (l *LocalAPIC) PendingIRQ() (v Vector, ok bool) {
	hi, any := l.irr.Highest()
	if !any {
		return 0, false
	}
	if inSvc, busy := l.isr.Highest(); busy && hi.Class() <= inSvc.Class() {
		return 0, false
	}
	return hi, true
}

// HasPending reports whether any vector is latched in the IRR,
// regardless of deliverability.
func (l *LocalAPIC) HasPending() bool { return !l.irr.Empty() }

// PendingCount returns the number of latched vectors.
func (l *LocalAPIC) PendingCount() int { return l.irr.Count() }

// Accept moves the given deliverable vector from IRR to ISR; the CPU is
// now running its handler. It panics if v is not the vector PendingIRQ
// would return, to catch model bugs early.
func (l *LocalAPIC) Accept(v Vector) {
	want, ok := l.PendingIRQ()
	if !ok || want != v {
		panic(fmt.Sprintf("apic: Accept(%d) but deliverable=(%d,%t)", v, want, ok))
	}
	l.irr.Clear(v)
	l.isr.Set(v)
	l.Accepted++
}

// EOI signals completion of the highest in-service vector and returns
// it. It panics when no interrupt is in service.
func (l *LocalAPIC) EOI() Vector {
	v, ok := l.isr.Highest()
	if !ok {
		panic("apic: EOI with empty ISR")
	}
	l.isr.Clear(v)
	l.Completed++
	return v
}

// InServiceDepth returns the number of nested in-service vectors.
func (l *LocalAPIC) InServiceDepth() int { return l.isr.Count() }

// CheckInvariants verifies the APIC's acceptance discipline: EOIs never
// outnumber acceptances, and the difference is exactly the in-service
// depth. Used by the opt-in runtime invariant checker.
func (l *LocalAPIC) CheckInvariants() error {
	if l.Completed > l.Accepted {
		return fmt.Errorf("apic: %d EOIs exceed %d acceptances", l.Completed, l.Accepted)
	}
	if l.Accepted-l.Completed != uint64(l.isr.Count()) {
		return fmt.Errorf("apic: Accepted-Completed=%d but ISR depth is %d",
			l.Accepted-l.Completed, l.isr.Count())
	}
	return nil
}

// Reset clears all interrupt state (used when a vCPU is re-initialized).
func (l *LocalAPIC) Reset() {
	l.irr = Bitmap256{}
	l.isr = Bitmap256{}
}

// DeliveryMode selects how an MSI chooses its destination among the
// candidate CPUs.
type DeliveryMode uint8

const (
	// Fixed delivers to exactly the CPU named in the destination field.
	Fixed DeliveryMode = iota
	// LowestPriority lets the interrupt be serviced by any CPU in the
	// destination set; Linux uses it for device interrupts when the
	// apic_default/apic_flat driver is selected (<= 8 CPUs), and it is
	// what makes ES2's redirection architecturally valid.
	LowestPriority
)

// String returns the mode name.
func (m DeliveryMode) String() string {
	switch m {
	case Fixed:
		return "fixed"
	case LowestPriority:
		return "lowest-priority"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", uint8(m))
	}
}

// MSIMessage is a Message-Signaled Interrupt as programmed by the guest:
// the vector, the destination vCPU (APIC ID) and the delivery mode.
// KVM's kvm_set_msi_irq builds exactly this from the MSI address/data
// registers; ES2 intercepts it there.
type MSIMessage struct {
	Vector Vector
	Dest   int // destination vCPU index within the VM
	Mode   DeliveryMode
}
