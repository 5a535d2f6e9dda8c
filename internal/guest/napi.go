package guest

import (
	"es2/internal/causal"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// NAPI is the guest's interrupt-mitigation receive path, modeled after
// Linux NAPI: the RX interrupt handler masks further interrupts and
// schedules a softirq poller; the poller consumes up to weight packets
// per round and re-enables interrupts only when the ring drains.
//
// This is the guest-side analogue of the hybrid scheme ES2 applies on
// the host side — the paper explicitly takes NAPI as its inspiration.
type NAPI struct {
	pair   *QueuePair
	weight int

	scheduled bool
	vcpu      *vmm.VCPU // vCPU the current poll cycle runs on
	burst     int       // consecutive poll rounds in the current cycle

	// pollFn and deliverFn are the two task callbacks of a poll round,
	// bound once. A NAPI has at most one task queued at a time, so the
	// batch it delivers waits in pkts, and flows collects the batch's
	// handlers; both slices are reused round after round.
	pollFn, deliverFn func()
	pkts              []*netsim.Packet
	flows             []BatchHandler

	// Rounds counts poll rounds.
	Rounds uint64
}

// softirqRestartLimit bounds how many consecutive poll rounds run at
// softirq priority before the cycle is demoted to process-context
// priority, mirroring Linux's MAX_SOFTIRQ_RESTART handoff to ksoftirqd.
// Without it, a vCPU whose offered receive load exceeds its capacity
// strict-priority-starves process context forever — receive livelock:
// the application tasks that would consume the data (and quench the
// senders' retries) never run.
const softirqRestartLimit = 10

func newNAPI(p *QueuePair, weight int) *NAPI {
	n := &NAPI{pair: p, weight: weight}
	n.pollFn, n.deliverFn = n.poll, n.deliver
	return n
}

// schedule requests a poll cycle on vCPU v (idempotent while already
// scheduled, as in napi_schedule).
func (n *NAPI) schedule(v *vmm.VCPU) {
	if n.scheduled {
		return
	}
	n.scheduled = true
	n.vcpu = v
	n.enqueuePoll()
}

// enqueuePoll queues one poll round on the chosen vCPU: at softirq
// priority while the cycle is young, at process-context priority (the
// ksoftirqd handoff) once it has monopolized the vCPU for
// softirqRestartLimit rounds — queued FIFO behind any starving tasks.
func (n *NAPI) enqueuePoll() {
	n.vcpu.EnqueueTask(vmm.NewTask("napi", n.prio(), n.pair.Dev.Kern.Costs.NAPIPoll, n.pollFn))
}

// prio returns the priority the current poll round runs at.
func (n *NAPI) prio() vmm.Prio {
	if n.burst >= softirqRestartLimit {
		return vmm.PrioTask
	}
	return vmm.PrioSoftirq
}

// poll runs at the end of the fixed poll overhead: collect a batch,
// charge its processing cost as one softirq task, then dispatch.
func (n *NAPI) poll() {
	v := n.vcpu
	n.Rounds++
	n.burst++
	// Reclaim up to weight used buffers, reading each where it sits in
	// the used ring: the batch is its packets.
	pkts, got := n.pkts[:0], 0
	for got < n.weight {
		d, ok := n.pair.RX.PopUsed()
		if !ok {
			break
		}
		got++
		if d.Payload != nil {
			pkts = append(pkts, d.Payload)
		}
	}
	n.pkts = pkts
	if got == 0 {
		n.finish()
		return
	}
	// Repost receive buffers for the consumed descriptors, kicking the
	// back-end only if it asked for refill notifications (it does so
	// exclusively when starved for buffers, so this almost never traps).
	n.pair.RX.AddBlank(got)
	if n.pair.Dev.DoorbellNoExit || n.pair.RX.KickSuppressed() {
		n.pair.RX.Kick()
	} else {
		v.BeginExit(vmm.ExitIOInstruction, n.pair.rxKick)
	}
	var cost sim.Time
	ca := n.pair.Dev.Kern.VM.K.Causal
	for _, p := range pkts {
		// The poller has collected the used buffer: ring-wait closes,
		// preceded by the captured interrupt episode's stages when the
		// buffer was already waiting for that interrupt.
		ca.Collect(&p.Unit, n.pair.ep, v.VM.K.Eng.Now())
		cost += n.pair.Dev.Kern.rxCost(p)
	}
	name := "napi-rx"
	if v.VM.K.Prof != nil {
		// Label the batch by protocol for CPU attribution. Task names
		// never influence behaviour, so this cannot perturb the run.
		name += ":" + protoLabel(pkts)
	}
	v.EnqueueTask(vmm.NewTask(name, n.prio(), cost, n.deliverFn))
}

// deliver runs at the end of the batch's processing cost: it hands the
// batch collected by poll to the protocol handlers.
func (n *NAPI) deliver() {
	v := n.vcpu
	if ca := n.pair.Dev.Kern.VM.K.Causal; ca != nil {
		// Guest receive stack: poll collect → protocol dispatch.
		now := v.VM.K.Eng.Now()
		for _, p := range n.pkts {
			ca.Mark(&p.Unit, causal.StageGuestRX, now)
		}
	}
	flows := n.flows[:0]
	for _, p := range n.pkts {
		if bh, ok := n.pair.Dev.Kern.lookup(p).(BatchHandler); ok {
			dup := false
			for _, b := range flows {
				if b == bh {
					dup = true
					break
				}
			}
			if !dup {
				flows = append(flows, bh)
			}
		}
		n.pair.Dev.Kern.dispatch(p, v)
	}
	// The slots are cleared so the reused slice keeps no packet alive.
	clear(n.pkts)
	n.flows = flows
	for _, bh := range flows {
		bh.BatchEnd(v)
	}
	if n.pair.RX.UsedLen() > 0 {
		// Budget exhausted with work remaining: stay in polling.
		n.enqueuePoll()
		return
	}
	n.finish()
}

// protoLabel classifies a poll batch by the protocol of its packets
// ("tcp", "udp", "icmp", "app", or "mixed"), mirroring how a real
// profile splits net_rx_action time between tcp_v4_rcv, udp_rcv, and
// the socket layer.
func protoLabel(pkts []*netsim.Packet) string {
	label := ""
	for _, p := range pkts {
		var l string
		switch p.Kind {
		case KindTCPData, KindTCPAck, KindSYN, KindSYNACK:
			l = "tcp"
		case KindUDP:
			l = "udp"
		case KindEcho, KindEchoReply:
			l = "icmp"
		case KindRequest, KindResponse:
			l = "app"
		default:
			l = "other"
		}
		if label == "" {
			label = l
		} else if label != l {
			return "mixed"
		}
	}
	if label == "" {
		return "other"
	}
	return label
}

// finish re-enables RX interrupts with the standard NAPI race check:
// packets that slipped in between the last poll and the unmask re-enter
// polling immediately.
func (n *NAPI) finish() {
	n.pair.RX.SetNoInterrupt(false)
	if n.pair.RX.UsedLen() > 0 {
		n.pair.RX.SetNoInterrupt(true)
		n.enqueuePoll()
		return
	}
	n.scheduled = false
	n.vcpu = nil
	n.burst = 0
}

// Scheduled reports whether a poll cycle is in flight.
func (n *NAPI) Scheduled() bool { return n.scheduled }
