package vmm

import "es2/internal/profile"

// enableProfiling interns this vCPU's context subtree under its home
// core and installs the thread's charge-time resolver. Called from
// newVCPU (deterministic build order), only when K.Prof is set.
//
// The subtree mirrors how a host-side profiler would decompose a vCPU
// thread's cycles:
//
//	coreN
//	└── vmX/vcpuY            (occupant; KindVCPU)
//	    ├── guest            (non-root mode; KindGuestMode)
//	    │   ├── kernel
//	    │   │   ├── irq      (hardirq context: virtio handlers)
//	    │   │   └── softirq  (NAPI poll, TCP rx processing)
//	    │   └── user         (process context + idle-class burners)
//	    └── exit:<reason>    (root mode, per exit reason; KindExit)
//
// GuestTime/HostTime are charged from the same scheduler deltas, so
// the guest subtree total equals GuestTime and the exit leaves sum to
// HostTime exactly.
func (v *VCPU) enableProfiling(p *profile.Profiler, coreID int) {
	v.profOcc = p.Core(coreID).ChildKind(v.Thread.Name, profile.KindVCPU, v.VM.Index)
	guest := v.profOcc.ChildKind("guest", profile.KindGuestMode, v.VM.Index)
	kernel := guest.Child("kernel")
	irq := kernel.Child("irq")
	softirq := kernel.Child("softirq")
	user := guest.Child("user")
	v.profPrio[PrioIRQ] = irq
	v.profPrio[PrioSoftirq] = softirq
	v.profPrio[PrioTask] = user
	v.profPrio[PrioIdle] = user
	for r := 0; r < NumExitReasons; r++ {
		v.profExit[r] = v.profOcc.ChildKind("exit:"+ExitReason(r).String(), profile.KindExit, v.VM.Index)
	}
	v.Thread.Prof = v.profLeaf
}

// profLeaf resolves the context the vCPU is consuming CPU in right
// now. Invoked by the scheduler at every charge point, before Ran, so
// mode, the current task and hostCur still describe the span being
// charged.
func (v *VCPU) profLeaf() *profile.Node {
	switch v.mode {
	case kindHost:
		if v.inExit {
			return v.profExit[v.hostCur.reason]
		}
	case kindGuest:
		// Interned per task name: the name set is small and static
		// (irq vectors, workload task names).
		return v.profPrio[v.curPrio].Child(v.current().name)
	}
	// kindNone never accumulates time (dispatch and NextChunk happen at
	// the same instant); charge the occupant if it somehow does.
	return v.profOcc
}
