// Package vmm models the hypervisor: virtual machines whose vCPUs are
// host threads, the VM exit/entry machinery with a calibrated cost
// model, both virtual-interrupt delivery paths (software-emulated APIC
// with IPI kick + injection, and hardware Posted-Interrupt), and the
// exit-cause/time-in-guest accounting that the paper's evaluation is
// built on.
package vmm

import "fmt"

// ExitReason identifies why a VM exit occurred, following the
// categories the paper reports (Section VI-C): the three most frequent
// causes in the virtual I/O event path plus an Others bucket.
type ExitReason int

const (
	// ExitExternalInterrupt: an external interrupt (here: the IPI used
	// to kick a running vCPU for virtual interrupt injection, or a
	// device interrupt arriving while in guest mode with EIE set).
	ExitExternalInterrupt ExitReason = iota
	// ExitAPICAccess: the guest touched its Local-APIC; in the I/O
	// event path this is almost exclusively the EOI write.
	ExitAPICAccess
	// ExitIOInstruction: the guest issued an I/O request (the virtio
	// kick, trapped via PIO/MMIO and routed to ioeventfd).
	ExitIOInstruction
	// ExitHLT: the guest idled. The paper's methodology pins a
	// lowest-priority CPU-burn script in every VM to suppress these;
	// the simulator supports them for completeness.
	ExitHLT
	// ExitOther aggregates infrequent causes (EPT violations, pending
	// interrupt windows, MSR accesses, ...).
	ExitOther

	NumExitReasons = iota
)

// String returns the perf-kvm style name of the exit reason.
func (r ExitReason) String() string {
	switch r {
	case ExitExternalInterrupt:
		return "ExternalInterrupt"
	case ExitAPICAccess:
		return "APICAccess"
	case ExitIOInstruction:
		return "IOInstruction"
	case ExitHLT:
		return "HLT"
	case ExitOther:
		return "Other"
	default:
		return fmt.Sprintf("ExitReason(%d)", int(r))
	}
}
