package core

import (
	"fmt"
	"sync"

	"es2/internal/apic"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// Redirector implements intelligent interrupt redirection: it plugs
// into KVM's MSI routing (the kvm_set_msi_irq interception of Section
// V-C) and overrides the affinity-chosen destination with the vCPU
// that can process the interrupt soonest.
//
// Safety rules from the paper are enforced here: only device vectors
// are redirected (per-vCPU vectors such as the timer would crash the
// guest), and only interrupts using the lowest-priority delivery mode
// (under fixed delivery the guest expects a specific CPU).
type Redirector struct {
	Watcher *SchedWatcher
	Policy  Policy

	mu     sync.Mutex
	sticky map[*vmm.VM]*vmm.VCPU
	rr     map[*vmm.VM]int
	rng    *sim.Rand
	// lists and avail are scratch buffers, reused under mu: the
	// watcher list Route reads and its PI-available subset.
	lists, avail []*vmm.VCPU

	// Stats.
	Redirected      uint64 // routed to a different vCPU than affinity
	KeptAffinity    uint64 // affinity target accepted (or no better)
	OnlineHits      uint64 // served by an online vCPU
	OfflinePredicts uint64 // fell back to the offline-list prediction
	Filtered        uint64 // not eligible (vector class/delivery mode)
	PIDegraded      uint64 // steered away from vCPUs with a broken PI facility
}

// NewRedirector creates a redirector over the watcher's lists.
func NewRedirector(w *SchedWatcher, policy Policy, rng *sim.Rand) *Redirector {
	return &Redirector{
		Watcher: w, Policy: policy,
		sticky: make(map[*vmm.VM]*vmm.VCPU),
		rr:     make(map[*vmm.VM]int),
		rng:    rng,
	}
}

// Route implements vmm.MSIRouter. Returning nil keeps the guest's
// affinity destination.
func (r *Redirector) Route(vm *vmm.VM, msi apic.MSIMessage) *vmm.VCPU {
	// Validity filters (Section V-C): device vectors only, and only
	// under the lowest-priority delivery mode.
	if msi.Mode != apic.LowestPriority || !vm.IsDeviceVector(msi.Vector) {
		r.Filtered++
		return nil
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	// Cache affinity: keep redirecting to the chosen vCPU until the
	// scheduler takes it away (or its PI facility breaks — delivery
	// would silently degrade to the emulated path).
	if t := r.sticky[vm]; t != nil && t.Online() && (!vm.K.UsePI || t.PID.Available()) {
		r.note(vm, t, msi)
		r.OnlineHits++
		return t
	}
	delete(r.sticky, vm)

	r.lists = r.Watcher.AppendOnline(r.lists[:0], vm)
	online := r.lists
	if vm.K.UsePI && len(online) > 0 {
		// Prefer candidates whose PI facility works; if some (but not
		// all) are degraded, steer around them.
		avail := r.avail[:0]
		for _, v := range online {
			if v.PID.Available() {
				avail = append(avail, v)
			}
		}
		r.avail = avail
		if len(avail) > 0 && len(avail) < len(online) {
			r.PIDegraded++
		}
		if len(avail) > 0 {
			online = avail
		}
	}
	if len(online) > 0 {
		t := r.pickOnline(vm, online)
		r.sticky[vm] = t
		r.note(vm, t, msi)
		r.OnlineHits++
		return t
	}

	// No vCPU is online: predict the next one to run. The offline list
	// is ordered by descheduling time, so its head has waited longest
	// and — under fair scheduling — runs next.
	r.lists = r.Watcher.AppendOffline(r.lists[:0], vm)
	offline := r.lists
	if len(offline) == 0 {
		return nil
	}
	var t *vmm.VCPU
	if r.Policy == PolicyOfflineTail {
		t = offline[len(offline)-1]
	} else {
		t = offline[0]
	}
	r.OfflinePredicts++
	r.note(vm, t, msi)
	return t
}

// pickOnline applies the configured policy among online candidates.
func (r *Redirector) pickOnline(vm *vmm.VM, online []*vmm.VCPU) *vmm.VCPU {
	switch r.Policy {
	case PolicyRoundRobin:
		i := r.rr[vm] % len(online)
		r.rr[vm]++
		return online[i]
	case PolicyRandom:
		if r.rng != nil {
			return online[r.rng.Intn(len(online))]
		}
		return online[0]
	default: // PolicyLeastLoaded and PolicyOfflineTail share this path
		best := online[0]
		for _, v := range online[1:] {
			if v.IRQAccepted < best.IRQAccepted {
				best = v
			}
		}
		return best
	}
}

func (r *Redirector) note(vm *vmm.VM, target *vmm.VCPU, msi apic.MSIMessage) {
	if target != vm.VCPUs[msi.Dest] {
		r.Redirected++
		if tl := vm.K.Timeline; tl.Active() {
			tl.Instant(target.Track(), fmt.Sprintf("redirect irq%#x", msi.Vector), vm.K.Eng.Now())
		}
	} else {
		r.KeptAffinity++
	}
}

// ES2 bundles an installed ES2 instance.
type ES2 struct {
	Config     Config
	Watcher    *SchedWatcher
	Redirector *Redirector
}

// Install applies cfg to the hypervisor: selects the delivery path and,
// when redirection is enabled, wires the watcher and router. The
// hybrid component is applied where the back-end devices are created
// (vhost.NewDevice), using cfg.Hybrid/cfg.Quota.
//
// Install must run before VMs are created only if callers want the
// watcher attached automatically — otherwise call AttachVM per VM.
func Install(k *vmm.KVM, cfg Config) *ES2 {
	k.UsePI = cfg.PI
	e := &ES2{Config: cfg}
	if cfg.Redirect {
		e.Watcher = NewSchedWatcher()
		e.Redirector = NewRedirector(e.Watcher, cfg.Policy, k.Eng.Rand().Fork())
		k.Router = e.Redirector
	}
	return e
}

// AttachVM subscribes a VM to the scheduling watcher (no-op when
// redirection is off).
func (e *ES2) AttachVM(vm *vmm.VM) {
	if e.Watcher != nil {
		e.Watcher.Attach(vm)
	}
}
