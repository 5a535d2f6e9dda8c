package apic

// PIDescriptor is the per-vCPU Posted-Interrupt descriptor defined by
// the Intel SDM. The hypervisor posts a virtual interrupt by setting the
// vector's bit in the PIR (Posted-Interrupt Requests) bitmap; if the
// outstanding-notification bit ON is clear it sets ON and sends the
// notification IPI. When the notification arrives at a core running the
// vCPU in guest mode, the hardware syncs PIR into the vAPIC page's
// virtual IRR and delivers through the guest IDT without a VM exit.
type PIDescriptor struct {
	pir Bitmap256
	// on is the Outstanding Notification bit: a notification IPI has
	// been sent and not yet processed, so further posts can skip the
	// IPI.
	on bool
	// sn is the Suppress Notification bit: set while the vCPU is not
	// running so that posting does not send pointless IPIs; the pending
	// bits are picked up by the sync at the next VM entry.
	sn bool

	// unavailable marks the PI facility broken for this vCPU (fault
	// injection models IOMMU/PI hardware errata this way). The zero
	// value means available. Delivery code consults Available and falls
	// back to the emulated path while the facility is down.
	unavailable bool

	// Posts counts Post calls; Notifications counts the subset that
	// required sending the notification IPI.
	Posts         uint64
	Notifications uint64
}

// Post records vector v as posted (a vector already pending in the PIR
// coalesces in hardware). It reports whether a notification IPI must
// be sent now: true exactly when neither ON nor SN was set.
func (d *PIDescriptor) Post(v Vector) bool {
	d.pir.Set(v)
	d.Posts++
	if d.on || d.sn {
		return false
	}
	d.on = true
	d.Notifications++
	return true
}

// Sync performs the hardware PIR->vIRR synchronization into the vCPU's
// virtual APIC page, clearing ON. It returns the number of vectors that
// became newly pending in the vAPIC (bits already pending there
// coalesce, as in hardware). It is invoked on notification-IPI receipt
// in guest mode and on every VM entry with pending PIR bits.
func (d *PIDescriptor) Sync(vapic *LocalAPIC) int {
	d.on = false
	return d.pir.DrainInto(&vapic.irr)
}

// HasPending reports whether any posted vector awaits synchronization.
func (d *PIDescriptor) HasPending() bool { return !d.pir.Empty() }

// Outstanding reports the ON bit.
func (d *PIDescriptor) Outstanding() bool { return d.on }

// SetSuppress sets or clears the SN bit. KVM sets SN when the vCPU
// stops running and clears it before VM entry.
func (d *PIDescriptor) SetSuppress(s bool) { d.sn = s }

// SetAvailable marks the PI facility working (true) or broken (false).
func (d *PIDescriptor) SetAvailable(ok bool) { d.unavailable = !ok }

// Available reports whether the PI facility is usable for this vCPU.
func (d *PIDescriptor) Available() bool { return !d.unavailable }
