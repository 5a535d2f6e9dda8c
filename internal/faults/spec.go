// Package faults implements deterministic fault injection for the
// simulated event path. Every fault is drawn from a generator forked
// off the scenario's seeded RNG, so a faulted run replays
// byte-identically: the same spec and seed drop the same packets, lose
// the same kicks and stall the same workers at the same instants.
//
// The injectable faults mirror the failure modes the paper's event
// path is fragile against:
//
//   - wire packet loss and duplication (cable/NIC-level corruption);
//   - lost virtqueue kicks and lost device→guest signals (the classic
//     lost-interrupt race: the notification cost is paid but the edge
//     never arrives);
//   - vhost I/O-thread stalls (the worker blocks in the kernel);
//   - per-vCPU posted-interrupt facility outages (IOMMU/PI hardware
//     errata, forcing delivery back to the emulated path);
//   - noisy-neighbor preemption storms on chosen physical cores.
//
// The recovery mechanisms paired with each fault live in the layer
// that owns them (guest TX watchdog, transport retransmission, vhost
// re-poll, KVM PI fallback); this package only decides when faults
// happen and counts them.
package faults

import (
	"fmt"
	"math"
	"time"
)

// Spec configures the fault injector for one scenario. The zero value
// injects nothing. Probabilities are per event; *Every fields are mean
// intervals of an exponential (Poisson) process and pair with a mean
// episode length.
type Spec struct {
	// PacketLossProb drops each wire frame with this probability
	// (after serialization: the bits were sent but arrive corrupt).
	PacketLossProb float64
	// PacketDupProb delivers each wire frame twice with this
	// probability (link-level retransmit duplication).
	PacketDupProb float64

	// LostKickProb swallows each delivered virtqueue kick with this
	// probability: the guest pays for the doorbell (including the VM
	// exit, in notification mode) but the ioeventfd never fires — the
	// lost-interrupt race on the request path.
	LostKickProb float64
	// LostSignalProb swallows each delivered device→guest signal with
	// this probability: the back-end pays the irqfd write but the MSI
	// never reaches the guest.
	LostSignalProb float64

	// VhostStallEvery injects a stall into a uniformly chosen vhost
	// I/O thread on average every VhostStallEvery (exponential
	// inter-arrival); each stall blocks the worker for an
	// exponentially distributed time with mean VhostStall (the worker
	// stuck in a kernel allocation or host softirq).
	VhostStallEvery time.Duration
	VhostStall      time.Duration

	// PIOutageEvery takes each vCPU's posted-interrupt facility down
	// on average every PIOutageEvery, for an exponential episode with
	// mean PIOutage. While down, delivery falls back to the emulated
	// LAPIC path (and recovers when the episode ends).
	PIOutageEvery time.Duration
	PIOutage      time.Duration

	// PreemptStormEvery starts a noisy-neighbor episode on average
	// every PreemptStormEvery: high-weight burner threads on
	// StormCores (default: all VM cores) each run for an exponential
	// time with mean PreemptStorm, preempting the vCPUs and widening
	// the online/offline churn the redirector must track.
	PreemptStormEvery time.Duration
	PreemptStorm      time.Duration
	StormCores        []int

	// NoRecovery disables the paired recovery mechanisms (TX watchdog,
	// transport retransmission, vhost re-poll) so the raw damage of a
	// fault is observable. PI fallback cannot be disabled: losing
	// interrupts outright would wedge the guest model.
	NoRecovery bool
}

// Enabled reports whether any fault is configured.
func (s Spec) Enabled() bool {
	return s.PacketLossProb > 0 || s.PacketDupProb > 0 ||
		s.LostKickProb > 0 || s.LostSignalProb > 0 ||
		s.VhostStallEvery > 0 || s.PIOutageEvery > 0 ||
		s.PreemptStormEvery > 0
}

// Validate checks the spec's internal consistency. Core-range checks
// for StormCores need the scenario topology and live in the es2
// package's spec validation.
func (s Spec) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"PacketLossProb", s.PacketLossProb},
		{"PacketDupProb", s.PacketDupProb},
		{"LostKickProb", s.LostKickProb},
		{"LostSignalProb", s.LostSignalProb},
	}
	for _, p := range probs {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s must be in [0, 1], got %v", p.name, p.v)
		}
	}
	if s.PacketLossProb+s.PacketDupProb > 1 {
		return fmt.Errorf("faults: PacketLossProb+PacketDupProb must not exceed 1, got %v",
			s.PacketLossProb+s.PacketDupProb)
	}
	pairs := []struct {
		name  string
		every time.Duration
		mean  time.Duration
	}{
		{"VhostStall", s.VhostStallEvery, s.VhostStall},
		{"PIOutage", s.PIOutageEvery, s.PIOutage},
		{"PreemptStorm", s.PreemptStormEvery, s.PreemptStorm},
	}
	for _, p := range pairs {
		if p.every < 0 || p.mean < 0 {
			return fmt.Errorf("faults: %s interval and duration must be non-negative", p.name)
		}
		if p.every > 0 && p.mean <= 0 {
			return fmt.Errorf("faults: %sEvery is set but the %s episode length is zero", p.name, p.name)
		}
		if p.mean > 0 && p.every <= 0 {
			return fmt.Errorf("faults: %s episode length is set but %sEvery is zero", p.name, p.name)
		}
	}
	if len(s.StormCores) > 0 && s.PreemptStormEvery <= 0 {
		return fmt.Errorf("faults: StormCores is set but PreemptStormEvery is zero")
	}
	return nil
}

// Counters tallies injected faults. All counting happens here, in the
// injector's hooks, so the instrumented layers stay fault-agnostic.
type Counters struct {
	WireDrops     uint64
	WireDups      uint64
	LostKicks     uint64
	LostSignals   uint64
	VhostStalls   uint64
	PIOutages     uint64
	PreemptStorms uint64
}

// Add accumulates o into c (one rack's per-host injectors into a
// cluster total).
func (c *Counters) Add(o Counters) {
	c.WireDrops += o.WireDrops
	c.WireDups += o.WireDups
	c.LostKicks += o.LostKicks
	c.LostSignals += o.LostSignals
	c.VhostStalls += o.VhostStalls
	c.PIOutages += o.PIOutages
	c.PreemptStorms += o.PreemptStorms
}

// Injected returns the total number of injected fault events.
func (c Counters) Injected() uint64 {
	return c.WireDrops + c.WireDups + c.LostKicks + c.LostSignals +
		c.VhostStalls + c.PIOutages + c.PreemptStorms
}
