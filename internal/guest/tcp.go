package guest

import (
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// TCPSender is the guest-side state of one outbound TCP stream: a
// congestion window that opens on ACK clocking (slow start toward the
// socket-buffer cap; the back-to-back testbed link never drops, so no
// loss recovery is modeled — cwnd saturates at MaxWindow, exactly as on
// the authors' 40GbE testbed).
type TCPSender struct {
	Kern     *Kernel
	FlowID   int
	SegBytes int
	// MaxWindow caps the in-flight segments (min of socket buffer and
	// the peer's advertised window).
	MaxWindow int

	cwnd      int
	inFlight  int
	nextSeq   int64
	lastAcked int64

	onWindowOpen func()

	// rto is the base retransmission timeout (from Kernel.RetransmitRTO
	// at creation; zero disables loss recovery, the lossless-testbed
	// default). curRTO carries the exponential backoff.
	rto    sim.Time
	curRTO sim.Time
	rtoEvt sim.Handle

	// SentSegs and AckedSegs count stream progress. Retransmits counts
	// go-back-N timeouts.
	SentSegs    uint64
	AckedSegs   uint64
	Retransmits uint64
}

// NewTCPSender registers and returns a sender flow. The initial window
// is 10 segments (IW10).
func NewTCPSender(k *Kernel, flowID, segBytes, maxWindow int) *TCPSender {
	f := &TCPSender{Kern: k, FlowID: flowID, SegBytes: segBytes, MaxWindow: maxWindow, cwnd: 10}
	if f.cwnd > maxWindow {
		f.cwnd = maxWindow
	}
	f.rto = k.RetransmitRTO
	f.curRTO = f.rto
	k.RegisterFlow(flowID, f)
	return f
}

// Window returns the current effective window in segments.
func (f *TCPSender) Window() int {
	if f.cwnd < f.MaxWindow {
		return f.cwnd
	}
	return f.MaxWindow
}

// CanSend reports whether the window admits another segment.
func (f *TCPSender) CanSend() bool { return f.inFlight < f.Window() }

// InFlight returns the number of unacknowledged segments.
func (f *TCPSender) InFlight() int { return f.inFlight }

// NextSegment builds the next data segment and accounts it in flight.
// The caller transmits it via the NetDev.
func (f *TCPSender) NextSegment() *netsim.Packet {
	p := f.Kern.Pool.Get()
	p.Bytes, p.Kind, p.Flow, p.Seq = f.SegBytes, KindTCPData, f.FlowID, f.nextSeq
	f.nextSeq++
	f.inFlight++
	f.SentSegs++
	f.armRTO()
	return p
}

// armRTO starts the retransmission timer if loss recovery is enabled
// and no timer is already pending.
func (f *TCPSender) armRTO() {
	if f.rto <= 0 || f.rtoEvt.Active() {
		return
	}
	f.rtoEvt = f.Kern.Engine().After(f.curRTO, f.onRTO)
}

// onRTO is the go-back-N retransmission timeout: rewind to the last
// cumulative ACK, restart from a slow-start window, and back off the
// timer exponentially (capped at 8x the base RTO).
func (f *TCPSender) onRTO() {
	if f.inFlight <= 0 {
		return
	}
	f.Retransmits++
	f.Kern.TCPRetransmits++
	f.nextSeq = f.lastAcked
	f.inFlight = 0
	f.cwnd = 10
	if f.cwnd > f.MaxWindow {
		f.cwnd = f.MaxWindow
	}
	f.curRTO *= 2
	if max := 8 * f.rto; f.curRTO > max {
		f.curRTO = max
	}
	if f.onWindowOpen != nil && f.CanSend() {
		fn := f.onWindowOpen
		f.onWindowOpen = nil
		fn()
	}
}

// WaitWindow registers a one-shot callback invoked when ACKs reopen the
// window.
func (f *TCPSender) WaitWindow(fn func()) { f.onWindowOpen = fn }

// RXCost implements FlowHandler: incoming packets on a sender flow are
// pure ACKs.
func (f *TCPSender) RXCost(p *netsim.Packet) sim.Time { return f.Kern.Costs.AckRX }

// HandleRX implements FlowHandler: cumulative ACK processing.
func (f *TCPSender) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	kind, seq := p.Kind, p.Seq
	p.Release()
	if kind != KindTCPAck {
		return
	}
	acked := seq - f.lastAcked
	if acked <= 0 {
		return
	}
	f.lastAcked = seq
	f.inFlight -= int(acked)
	if f.inFlight < 0 {
		f.inFlight = 0
	}
	f.AckedSegs += uint64(acked)
	// Forward progress: reset the backoff and re-arm for what remains.
	if f.rto > 0 {
		f.curRTO = f.rto
		f.rtoEvt.Cancel()
		if f.inFlight > 0 {
			f.armRTO()
		}
	}
	// Slow-start growth toward the cap; the lossless link never
	// triggers congestion avoidance.
	f.cwnd += int(acked)
	if f.cwnd > f.MaxWindow {
		f.cwnd = f.MaxWindow
	}
	if f.onWindowOpen != nil && f.CanSend() {
		fn := f.onWindowOpen
		f.onWindowOpen = nil
		fn()
	}
}

// TCPReceiver is the guest-side state of one inbound TCP stream. The
// receive path is two-stage, as in a real kernel: softirq does the
// protocol work and generates one cumulative stretch ACK per NAPI poll
// batch (GRO behaviour), while the copy to userspace is charged to a
// process-context task that — like a wake-affine receiver process —
// follows the vCPU the softirq ran on. The ACK transmissions are the
// residual I/O-instruction exits the paper observes in the receive
// direction ("ACK packets are sent only at a certain interval").
type TCPReceiver struct {
	Kern   *Kernel
	FlowID int

	// expected is the next in-order sequence number; segments beyond it
	// are not buffered (go-back-N discipline, matching the sender's
	// timeout recovery) and trigger a duplicate cumulative ACK.
	expected   int64
	pendingAck int

	appPendingPkts  int
	appPendingBytes int
	appBusy         bool
	// appV, appPkts and appBytes describe the one copy task in flight;
	// copyDone, its completion, is bound once.
	appV              *vmm.VCPU
	appPkts, appBytes int
	copyDone          func()

	// BytesReceived and Segs count goodput (counted when the copy to
	// the application completes).
	BytesReceived uint64
	Segs          uint64
	// AcksSent counts outbound ACKs; AckDrops counts ACKs lost to a
	// full TX ring (recovered by later cumulative ACKs).
	AcksSent uint64
	AckDrops uint64
}

// NewTCPReceiver registers and returns a receiver flow.
func NewTCPReceiver(k *Kernel, flowID int) *TCPReceiver {
	f := &TCPReceiver{Kern: k, FlowID: flowID}
	f.copyDone = f.copied
	k.RegisterFlow(flowID, f)
	return f
}

// RXCost implements FlowHandler: softirq protocol work only; the copy
// stage is charged to the receiver process.
func (f *TCPReceiver) RXCost(p *netsim.Packet) sim.Time {
	return f.Kern.Costs.RXProtocol
}

// HandleRX implements FlowHandler.
func (f *TCPReceiver) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	kind, seq, bytes := p.Kind, p.Seq, p.Bytes
	p.Release()
	if kind != KindTCPData {
		return
	}
	// Every data segment earns a (possibly duplicate) cumulative ACK at
	// batch end; only the in-order one advances the stream toward the
	// application.
	f.pendingAck++
	if seq != f.expected {
		return
	}
	f.expected++
	f.appPendingPkts++
	f.appPendingBytes += bytes
}

// BatchEnd implements BatchHandler: one cumulative ACK per poll batch
// (its build cost rides on the batch's NAPI accounting), then wake the
// receiver process on this vCPU.
func (f *TCPReceiver) BatchEnd(v *vmm.VCPU) {
	if f.pendingAck > 0 {
		f.pendingAck = 0
		ack := f.Kern.Pool.Get()
		ack.Bytes, ack.Kind, ack.Flow, ack.Seq = 66, KindTCPAck, f.FlowID, f.expected
		if f.Kern.Dev.Transmit(v, ack) {
			f.AcksSent++
		} else {
			f.AckDrops++
		}
	}
	f.runApp(v)
}

// runApp drains the pending copy work as a process-context task on v
// (wake affinity: the receiver runs where it was woken).
func (f *TCPReceiver) runApp(v *vmm.VCPU) {
	if f.appBusy || f.appPendingPkts == 0 {
		return
	}
	f.appBusy = true
	f.appV, f.appPkts, f.appBytes = v, f.appPendingPkts, f.appPendingBytes
	f.appPendingPkts, f.appPendingBytes = 0, 0
	c := f.Kern.Costs
	cost := sim.Time(f.appPkts)*c.RXCopyBase + sim.Time(c.RXCopyPerByte*float64(f.appBytes))
	v.EnqueueTask(vmm.NewTask("recv-copy", vmm.PrioTask, f.Kern.JitterCost(cost), f.copyDone))
}

// copied completes the copy task: the application has the data, and
// whatever arrived meanwhile is drained on the same vCPU.
func (f *TCPReceiver) copied() {
	f.BytesReceived += uint64(f.appBytes)
	f.Segs += uint64(f.appPkts)
	f.appBusy = false
	f.runApp(f.appV)
}
