package guest

import (
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// UDPSender is the guest-side state of one outbound UDP stream:
// connectionless and unidirectional, so there is no window — production
// is limited only by guest CPU and ring space (full ring drops, as a
// full qdisc would).
type UDPSender struct {
	Kern     *Kernel
	FlowID   int
	PktBytes int
	nextSeq  int64
}

// NewUDPSender registers and returns a UDP sender flow (registered so
// stray reverse traffic is costed sanely).
func NewUDPSender(k *Kernel, flowID, pktBytes int) *UDPSender {
	f := &UDPSender{Kern: k, FlowID: flowID, PktBytes: pktBytes}
	k.RegisterFlow(flowID, f)
	return f
}

// NextPacket builds the next datagram.
func (f *UDPSender) NextPacket() *netsim.Packet {
	p := f.Kern.Pool.Get()
	p.Bytes, p.Kind, p.Flow, p.Seq = f.PktBytes, KindUDP, f.FlowID, f.nextSeq
	f.nextSeq++
	return p
}

// RXCost implements FlowHandler.
func (f *UDPSender) RXCost(p *netsim.Packet) sim.Time { return f.Kern.Costs.RXBase }

// HandleRX implements FlowHandler (UDP send flows receive nothing).
func (f *UDPSender) HandleRX(p *netsim.Packet, v *vmm.VCPU) { p.Release() }

// UDPReceiver counts an inbound UDP stream.
type UDPReceiver struct {
	Kern   *Kernel
	FlowID int

	BytesReceived uint64
	Pkts          uint64
}

// NewUDPReceiver registers and returns a UDP receiver flow.
func NewUDPReceiver(k *Kernel, flowID int) *UDPReceiver {
	f := &UDPReceiver{Kern: k, FlowID: flowID}
	k.RegisterFlow(flowID, f)
	return f
}

// RXCost implements FlowHandler.
func (f *UDPReceiver) RXCost(p *netsim.Packet) sim.Time {
	return f.Kern.Costs.RXCost(p.Bytes)
}

// HandleRX implements FlowHandler.
func (f *UDPReceiver) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	f.BytesReceived += uint64(p.Bytes)
	f.Pkts++
	p.Release()
}

// PingResponder answers ICMP echo requests from softirq context,
// mirroring the kernel's in-stack ICMP handling. The reply carries the
// request's Seq so the prober can match and time it.
type PingResponder struct {
	Kern   *Kernel
	FlowID int

	Replies uint64
}

// NewPingResponder registers and returns an ICMP responder flow.
func NewPingResponder(k *Kernel, flowID int) *PingResponder {
	f := &PingResponder{Kern: k, FlowID: flowID}
	k.RegisterFlow(flowID, f)
	return f
}

// RXCost implements FlowHandler: echo processing plus reply build.
func (f *PingResponder) RXCost(p *netsim.Packet) sim.Time {
	return f.Kern.Costs.RXBase + f.Kern.Costs.AckTX
}

// HandleRX implements FlowHandler.
func (f *PingResponder) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	if p.Kind != KindEcho {
		p.Release()
		return
	}
	reply := f.Kern.Pool.Get()
	reply.Bytes, reply.Kind, reply.Flow, reply.Seq = p.Bytes, KindEchoReply, f.FlowID, p.Seq
	reply.Chain = p.Chain // the echo continues the prober's causal chain
	p.Release()
	if f.Kern.Dev.Transmit(v, reply) {
		f.Replies++
	}
}
