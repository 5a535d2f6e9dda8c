package guest

import (
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// GoBackN is the window and go-back-N loss recovery of one TCP sender,
// shared by the guest's TCPSender and the peer's workloads.TCPSource.
// A zero RTO disables recovery, the lossless-testbed default. Each
// sender arms the timer with ArmRTO at its own points in its send and
// ACK paths.
type GoBackN struct {
	// maxWindow caps the in-flight segments (min of socket buffer and
	// the peer's advertised window).
	maxWindow  int
	initWindow int
	cwnd       int // the window, never above maxWindow
	inFlight   int
	nextSeq    int64
	lastAcked  int64

	rto    sim.Time
	curRTO sim.Time
	rtoEvt sim.Handle

	// SentSegs and AckedSegs count stream progress. Retransmits counts
	// go-back-N timeouts.
	SentSegs    uint64
	AckedSegs   uint64
	Retransmits uint64
}

// NewGoBackN returns a sender's window state: initWindow segments
// (capped at maxWindow) to start, and a base retransmission timeout of
// rto (zero disables recovery).
func NewGoBackN(initWindow, maxWindow int, rto sim.Time) GoBackN {
	iw := min(initWindow, maxWindow)
	return GoBackN{maxWindow: maxWindow, initWindow: iw, cwnd: iw, rto: rto, curRTO: rto}
}

// Window returns the current effective window in segments.
func (g *GoBackN) Window() int { return g.cwnd }

// CanSend reports whether the window admits another segment.
func (g *GoBackN) CanSend() bool { return g.inFlight < g.Window() }

// InFlight returns the number of unacknowledged segments.
func (g *GoBackN) InFlight() int { return g.inFlight }

// Next accounts one more segment in flight and returns its sequence
// number.
func (g *GoBackN) Next() int64 {
	seq := g.nextSeq
	g.nextSeq++
	g.inFlight++
	g.SentSegs++
	return seq
}

// ArmRTO starts the retransmission timer, calling onRTO at its expiry,
// if recovery is enabled, segments are in flight and no timer is
// already pending.
func (g *GoBackN) ArmRTO(eng *sim.Engine, onRTO func()) {
	if g.rto <= 0 || g.rtoEvt.Active() || g.inFlight == 0 {
		return
	}
	g.rtoEvt = eng.After(g.curRTO, onRTO)
}

// Timeout applies a retransmission timeout: rewind to the last
// cumulative ACK, restart from the initial window and double the timer
// up to its cap. It reports false, and does nothing, when nothing is
// in flight.
func (g *GoBackN) Timeout() bool {
	if g.inFlight == 0 {
		return false
	}
	g.Retransmits++
	g.nextSeq = g.lastAcked
	g.inFlight = 0
	g.cwnd = g.initWindow
	g.curRTO = min(2*g.curRTO, 8*g.rto)
	return true
}

// Ack applies the cumulative ACK seq: the window grows by one segment
// per segment acknowledged, up to its cap, and the pending timer and
// its backoff are reset. An ACK that acknowledges nothing new changes
// nothing and reports false.
func (g *GoBackN) Ack(seq int64) bool {
	acked := seq - g.lastAcked
	if acked <= 0 {
		return false
	}
	g.lastAcked = seq
	g.inFlight = max(g.inFlight-int(acked), 0)
	g.AckedSegs += uint64(acked)
	g.curRTO = g.rto
	g.rtoEvt.Cancel()
	g.cwnd = min(g.cwnd+int(acked), g.maxWindow)
	return true
}

// TCPSender is the guest-side state of one outbound TCP stream. Its
// window opens on ACK clocking (slow start toward the socket-buffer
// cap); the back-to-back testbed link never drops, so cwnd saturates at
// the cap, exactly as on the authors' 40GbE testbed. Loss recovery
// (Kernel.RetransmitRTO) serves only fault-injected runs.
type TCPSender struct {
	GoBackN
	Kern     *Kernel
	FlowID   int
	SegBytes int

	onWindowOpen func()
	// rtoFn is onRTO, bound once.
	rtoFn func()
}

// NewTCPSender registers and returns a sender flow. The initial window
// is 10 segments (IW10).
func NewTCPSender(k *Kernel, flowID, segBytes, maxWindow int) *TCPSender {
	f := &TCPSender{GoBackN: NewGoBackN(10, maxWindow, k.RetransmitRTO), Kern: k, FlowID: flowID, SegBytes: segBytes}
	f.rtoFn = f.onRTO
	k.RegisterFlow(flowID, f)
	return f
}

// NextSegment builds the next data segment and accounts it in flight.
// The caller transmits it via the NetDev.
func (f *TCPSender) NextSegment() *netsim.Packet {
	p := f.Kern.Pool.Get()
	p.Bytes, p.Kind, p.Flow, p.Seq = f.SegBytes, KindTCPData, f.FlowID, f.Next()
	f.ArmRTO(f.Kern.Engine(), f.rtoFn)
	return p
}

// onRTO is the retransmission timeout: go back to the last cumulative
// ACK and resume a sender blocked on the window.
func (f *TCPSender) onRTO() {
	if f.Timeout() {
		f.Kern.TCPRetransmits++
		f.windowOpened()
	}
}

// WaitWindow registers a one-shot callback invoked when ACKs reopen the
// window.
func (f *TCPSender) WaitWindow(fn func()) { f.onWindowOpen = fn }

// windowOpened runs the WaitWindow callback if the window admits a
// segment.
func (f *TCPSender) windowOpened() {
	if f.onWindowOpen != nil && f.CanSend() {
		fn := f.onWindowOpen
		f.onWindowOpen = nil
		fn()
	}
}

// RXCost implements FlowHandler: incoming packets on a sender flow are
// pure ACKs.
func (f *TCPSender) RXCost(p *netsim.Packet) sim.Time { return f.Kern.Costs.AckRX }

// HandleRX implements FlowHandler: cumulative ACK processing.
func (f *TCPSender) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	kind, seq := p.Kind, p.Seq
	p.Release()
	if kind != KindTCPAck || !f.Ack(seq) {
		return
	}
	f.ArmRTO(f.Kern.Engine(), f.rtoFn)
	f.windowOpened()
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
	// AcksSent counts outbound ACKs. An ACK lost to a full TX ring is
	// recovered by a later cumulative ACK.
	AcksSent uint64
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
