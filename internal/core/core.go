// Package core implements ES2, the paper's contribution: an Efficient
// and reSponsive Event System for I/O virtualization (Hu et al., ICPP
// 2017). It combines three components:
//
//   - PI processing: hardware posted interrupts as the delivery basis
//     (provided by the vmm package, selected here by Config.PI);
//   - Hybrid I/O Handling: exit-less delivery of guests' I/O requests
//     by a prompt notification/polling mode switch governed by a quota
//     (Algorithm 1, implemented in the vhost package, selected here by
//     Config.Hybrid/Quota);
//   - Intelligent Interrupt Redirection: a scheduler-informed override
//     of MSI routing that sends device interrupts to the vCPU able to
//     process them soonest (implemented here: SchedWatcher +
//     Redirector).
package core

import (
	"fmt"
	"sync"

	"es2/internal/vmm"
)

// Config selects which ES2 components are active, mirroring the four
// configurations of the paper's evaluation (Section VI-A).
type Config struct {
	// PI enables hardware posted-interrupt delivery and completion.
	PI bool `json:"pi"`
	// Hybrid enables the hybrid I/O handling scheme in the vhost
	// back-end with the given Quota (the poll_quota module parameter).
	Hybrid bool `json:"hybrid"`
	Quota  int  `json:"quota"`
	// Redirect enables intelligent interrupt redirection.
	Redirect bool `json:"redirect"`
	// Policy selects the redirection target policy (ablation knob;
	// the paper's design is PolicyLeastLoaded).
	Policy Policy `json:"policy"`
}

// Baseline is KVM with PI disabled.
func Baseline() Config { return Config{} }

// PIOnly enables posted interrupts alone.
func PIOnly() Config { return Config{PI: true} }

// PIH adds hybrid I/O handling on top of PI.
func PIH(quota int) Config { return Config{PI: true, Hybrid: true, Quota: quota} }

// Full is the complete ES2: PI + hybrid + redirection.
func Full(quota int) Config {
	return Config{PI: true, Hybrid: true, Quota: quota, Redirect: true}
}

// Name renders the paper's configuration label.
func (c Config) Name() string {
	switch {
	case c.Redirect && c.Hybrid && c.PI:
		return "PI+H+R"
	case c.Hybrid && c.PI:
		return "PI+H"
	case c.PI:
		return "PI"
	default:
		return "Baseline"
	}
}

// String includes the quota when hybrid is on.
func (c Config) String() string {
	if c.Hybrid {
		return fmt.Sprintf("%s(quota=%d)", c.Name(), c.Quota)
	}
	return c.Name()
}

// Policy is the redirection target-selection policy.
type Policy uint8

const (
	// PolicyLeastLoaded is the paper's design: among online vCPUs pick
	// the one with the fewest processed interrupts (workload
	// balancing), stick to it until it is descheduled (cache
	// affinity); with no online vCPU, predict the head of the offline
	// list (longest offline ≈ first to run again).
	PolicyLeastLoaded Policy = iota
	// PolicyRoundRobin rotates over online vCPUs (ablation).
	PolicyRoundRobin
	// PolicyRandom picks a uniformly random online vCPU (ablation).
	PolicyRandom
	// PolicyOfflineTail inverts the offline prediction (ablation: pick
	// the most recently descheduled vCPU).
	PolicyOfflineTail
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLeastLoaded:
		return "least-loaded"
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyRandom:
		return "random"
	case PolicyOfflineTail:
		return "offline-tail"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// vmLists is the per-VM scheduling state ES2 maintains.
type vmLists struct {
	online []*vmm.VCPU
	// offline is ordered by descheduling time: the head was
	// descheduled longest ago, hence — by ES2's prediction — will be
	// the first to regain the CPU.
	offline []*vmm.VCPU
}

// SchedWatcher is ES2's information channel to the vCPU scheduler: it
// subscribes to the preemption notifiers (kvm_sched_in/kvm_sched_out)
// and maintains online/offline vCPU lists per VM.
//
// The lists are mutex-protected: sibling vCPUs on different cores
// change scheduling state concurrently in a real host (Section V-B).
type SchedWatcher struct {
	mu  sync.Mutex
	vms map[*vmm.VM]*vmLists

	// Transitions counts sched-in/out events observed.
	Transitions uint64
}

// NewSchedWatcher returns an empty watcher.
func NewSchedWatcher() *SchedWatcher {
	return &SchedWatcher{vms: make(map[*vmm.VM]*vmLists)}
}

// Attach subscribes to vm's vCPU preemption notifiers. All vCPUs start
// on the offline list in index order.
func (w *SchedWatcher) Attach(vm *vmm.VM) {
	w.mu.Lock()
	l := &vmLists{}
	l.offline = append(l.offline, vm.VCPUs...)
	w.vms[vm] = l
	w.mu.Unlock()
	for _, v := range vm.VCPUs {
		v := v
		v.AddSchedInHook(func(core int) { w.schedIn(vm, v) })
		v.AddSchedOutHook(func() { w.schedOut(vm, v) })
	}
}

func (w *SchedWatcher) schedIn(vm *vmm.VM, v *vmm.VCPU) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Transitions++
	l := w.vms[vm]
	l.offline = remove(l.offline, v)
	l.online = append(l.online, v)
}

func (w *SchedWatcher) schedOut(vm *vmm.VM, v *vmm.VCPU) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.Transitions++
	l := w.vms[vm]
	l.online = remove(l.online, v)
	// Tail of the offline list: most recently descheduled.
	l.offline = append(l.offline, v)
}

func remove(s []*vmm.VCPU, v *vmm.VCPU) []*vmm.VCPU {
	for i, x := range s {
		if x == v {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// AppendOnline appends vm's online vCPUs to dst and returns the
// extended slice. Appending into a caller-owned buffer lets the
// redirector read the list on every interrupt without a copy of its
// own.
func (w *SchedWatcher) AppendOnline(dst []*vmm.VCPU, vm *vmm.VM) []*vmm.VCPU {
	w.mu.Lock()
	defer w.mu.Unlock()
	if l := w.vms[vm]; l != nil {
		dst = append(dst, l.online...)
	}
	return dst
}

// ListLens returns the current online/offline list lengths for vm
// without copying (snapshot probes; zeros for an unattached VM).
func (w *SchedWatcher) ListLens(vm *vmm.VM) (online, offline int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.vms[vm]
	if l == nil {
		return 0, 0
	}
	return len(l.online), len(l.offline)
}

// CheckConsistency verifies the watcher's bookkeeping against the
// scheduler's ground truth: the two lists partition vm's vCPUs with no
// duplicates, and membership matches each vCPU's actual scheduling
// state. Used by the opt-in runtime invariant checker; returns nil for
// an unattached VM.
func (w *SchedWatcher) CheckConsistency(vm *vmm.VM) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.vms[vm]
	if l == nil {
		return nil
	}
	if got, want := len(l.online)+len(l.offline), len(vm.VCPUs); got != want {
		return fmt.Errorf("watcher: lists hold %d vCPUs, VM has %d", got, want)
	}
	seen := make(map[*vmm.VCPU]bool, len(vm.VCPUs))
	for _, v := range l.online {
		if seen[v] {
			return fmt.Errorf("watcher: vCPU %d listed twice", v.ID)
		}
		seen[v] = true
		if !v.Online() {
			return fmt.Errorf("watcher: vCPU %d on online list but not running", v.ID)
		}
	}
	for _, v := range l.offline {
		if seen[v] {
			return fmt.Errorf("watcher: vCPU %d listed twice", v.ID)
		}
		seen[v] = true
		if v.Online() {
			return fmt.Errorf("watcher: vCPU %d on offline list but running", v.ID)
		}
	}
	return nil
}

// AppendOffline appends vm's offline vCPUs to dst in descheduling
// order (head = longest offline) and returns the extended slice.
func (w *SchedWatcher) AppendOffline(dst []*vmm.VCPU, vm *vmm.VM) []*vmm.VCPU {
	w.mu.Lock()
	defer w.mu.Unlock()
	if l := w.vms[vm]; l != nil {
		dst = append(dst, l.offline...)
	}
	return dst
}
