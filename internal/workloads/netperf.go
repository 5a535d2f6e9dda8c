package workloads

import (
	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// Netperf reproduces the netperf micro-benchmark: TCP_STREAM and
// UDP_STREAM in both directions with configurable message sizes.

// NetperfSendTCP runs a netperf TCP_STREAM sender as a guest process on
// vCPU v, streaming toward the external peer. It returns the guest flow
// (for progress stats) and the peer sink (for goodput).
func NetperfSendTCP(kern *guest.Kernel, v *vmm.VCPU, pe *Peer, flowID, msgBytes, window int) (*guest.TCPSender, *TCPSink) {
	f := guest.NewTCPSender(kern, flowID, msgBytes, window)
	sink := &TCPSink{peer: pe, flowID: flowID, ackEvery: 4}
	pe.Register(flowID, sink)

	// The stream transmits on the queue pair its flow hashes to, so it
	// checks and waits on that pair's ring.
	pair := kern.Dev.PairFor(flowID)
	prep := kern.Costs.TXCost(msgBytes, true)
	var pending *netsim.Packet
	var loop, send func()
	loop = func() {
		if pending != nil {
			if !pair.Dev.Transmit(v, pending) {
				pair.WaitTX(loop)
				return
			}
			pending = nil
		}
		if !f.CanSend() {
			f.WaitWindow(loop) // netperf blocks in send(): window closed
			return
		}
		if pair.TX.Full() {
			pair.WaitTX(loop)
			return
		}
		v.EnqueueTask(vmm.NewTask("netperf-tcp-tx", vmm.PrioTask, kern.JitterCost(prep), send))
	}
	// send ends one message's preparation task; it is bound once, as
	// the stream has at most one such task queued.
	send = func() {
		seg := f.NextSegment()
		if !pair.Dev.Transmit(v, seg) {
			pending = seg
			pair.WaitTX(loop)
			return
		}
		loop()
	}
	loop()
	return f, sink
}

// NetperfSendUDP runs a netperf UDP_STREAM sender as a guest process on
// vCPU v. UDP never blocks: a full ring drops locally, as a full qdisc
// would.
func NetperfSendUDP(kern *guest.Kernel, v *vmm.VCPU, pe *Peer, flowID, msgBytes int) (*guest.UDPSender, *UDPSink) {
	f := guest.NewUDPSender(kern, flowID, msgBytes)
	sink := &UDPSink{}
	pe.Register(flowID, sink)

	dev := kern.Dev
	prep := kern.Costs.TXCost(msgBytes, false)
	var loop, send func()
	loop = func() {
		v.EnqueueTask(vmm.NewTask("netperf-udp-tx", vmm.PrioTask, kern.JitterCost(prep), send))
	}
	send = func() {
		dev.TransmitOrDrop(v, f.NextPacket())
		loop()
	}
	loop()
	return f, sink
}

// NetperfSendUDPPaced is NetperfSendUDP at a fixed offered rate instead
// of CPU speed — the "low I/O load" regime where the paper argues
// dedicated-core polling wastes cycles and notification mode is
// preferable.
func NetperfSendUDPPaced(kern *guest.Kernel, v *vmm.VCPU, pe *Peer, flowID, msgBytes int, pps float64) (*guest.UDPSender, *UDPSink) {
	f := guest.NewUDPSender(kern, flowID, msgBytes)
	sink := &UDPSink{}
	pe.Register(flowID, sink)

	dev := kern.Dev
	prep := kern.Costs.TXCost(msgBytes, false)
	interval := sim.Time(1e9 / pps)
	eng := kern.Engine()
	send := func() { dev.TransmitOrDrop(v, f.NextPacket()) }
	var tick func()
	tick = func() {
		v.EnqueueTask(vmm.NewTask("netperf-udp-paced", vmm.PrioTask, kern.JitterCost(prep), send))
		eng.After(interval, tick)
	}
	eng.After(interval, tick)
	return f, sink
}

// TCPSink is the peer-side terminator of a guest-to-peer TCP stream: it
// counts goodput and generates one cumulative stretch ACK per ackEvery
// segments (a GRO-enabled receiver NIC acknowledges coalesced chunks).
type TCPSink struct {
	peer     *Peer
	flowID   int
	ackEvery int

	pending int
	// expected is the next in-order sequence number; out-of-order
	// segments (after a wire loss) are not buffered and draw an
	// immediate duplicate cumulative ACK so the sender learns where the
	// stream stands.
	expected int64

	// Bytes and Segs are receiver-side goodput (what netperf reports).
	Bytes uint64
	Segs  uint64
}

// PeerReceive implements PeerFlow.
func (s *TCPSink) PeerReceive(p *netsim.Packet) {
	kind, seq, bytes := p.Kind, p.Seq, p.Bytes
	p.Release()
	if kind != guest.KindTCPData {
		return
	}
	if seq != s.expected {
		s.ack()
		return
	}
	s.expected++
	s.Bytes += uint64(bytes)
	s.Segs++
	s.pending++
	if s.pending >= s.ackEvery {
		s.pending = 0
		s.ack()
	}
}

// ack sends the cumulative ACK for the in-order stream so far.
func (s *TCPSink) ack() {
	a := s.peer.Pool.Get()
	a.Bytes, a.Kind, a.Flow, a.Seq = 66, guest.KindTCPAck, s.flowID, s.expected
	s.peer.Send(a)
}

// UDPSink counts a guest-to-peer UDP stream at the receiver.
type UDPSink struct {
	Bytes uint64
	Pkts  uint64
}

// PeerReceive implements PeerFlow.
func (s *UDPSink) PeerReceive(p *netsim.Packet) {
	if p.Kind == guest.KindUDP {
		s.Bytes += uint64(p.Bytes)
		s.Pkts++
	}
	p.Release()
}

// NetperfRecvTCP runs a netperf TCP_STREAM receive test: the peer
// streams toward the guest with the given in-flight window, clocked by
// the guest's delayed ACKs. It returns the guest receiver (goodput is
// counted there, as netperf does).
func NetperfRecvTCP(kern *guest.Kernel, pe *Peer, flowID, msgBytes, window int) (*guest.TCPReceiver, *TCPSource) {
	r := guest.NewTCPReceiver(kern, flowID)
	src := &TCPSource{GoBackN: guest.NewGoBackN(window, window, pe.RetransmitRTO), peer: pe, flowID: flowID, segBytes: msgBytes}
	src.rtoFn = src.onRTO
	pe.Register(flowID, src)
	src.pump()
	return r, src
}

// TCPSource is the peer-side sender of a peer-to-guest TCP stream. Its
// window starts, and stays, at its full size.
type TCPSource struct {
	guest.GoBackN
	peer     *Peer
	flowID   int
	segBytes int
	// rtoFn is onRTO, bound once.
	rtoFn func()
}

// pump sends while the window admits, then times what is in flight.
func (s *TCPSource) pump() {
	for s.CanSend() {
		seg := s.peer.Pool.Get()
		seg.Bytes, seg.Kind, seg.Flow, seg.Seq = s.segBytes, guest.KindTCPData, s.flowID, s.Next()
		s.peer.Send(seg)
	}
	s.ArmRTO(s.peer.Eng, s.rtoFn)
}

// onRTO is the retransmission timeout: go back to the last cumulative
// ACK and resend the window.
func (s *TCPSource) onRTO() {
	if s.Timeout() {
		s.peer.Retransmits++
		s.pump()
	}
}

// PeerReceive implements PeerFlow: guest ACKs open the window.
func (s *TCPSource) PeerReceive(p *netsim.Packet) {
	kind, seq := p.Kind, p.Seq
	p.Release()
	if kind == guest.KindTCPAck && s.Ack(seq) {
		s.pump()
	}
}

// NetperfRecvUDP runs a netperf UDP_STREAM receive test: the peer
// blasts datagrams at the given packet rate (an unloaded sender is wire
// or CPU bound; the rate parameter stands for its capability).
func NetperfRecvUDP(kern *guest.Kernel, pe *Peer, flowID, msgBytes int, pps float64) (*guest.UDPReceiver, *UDPSource) {
	r := guest.NewUDPReceiver(kern, flowID)
	src := &UDPSource{peer: pe, flowID: flowID, pktBytes: msgBytes, interval: sim.Time(1e9 / pps)}
	pe.Register(flowID, src)
	src.start()
	return r, src
}

// UDPSource sends a constant-rate UDP stream from the peer.
type UDPSource struct {
	peer     *Peer
	flowID   int
	pktBytes int
	interval sim.Time
	nextSeq  int64
}

func (s *UDPSource) start() {
	var tick func()
	tick = func() {
		p := s.peer.Pool.Get()
		p.Bytes, p.Kind, p.Flow, p.Seq = s.pktBytes, guest.KindUDP, s.flowID, s.nextSeq
		s.peer.Port.Send(p)
		s.nextSeq++
		s.peer.Eng.After(s.interval, tick)
	}
	s.peer.Eng.After(s.interval, tick)
}

// PeerReceive implements PeerFlow (nothing flows back on UDP).
func (s *UDPSource) PeerReceive(p *netsim.Packet) { p.Release() }
