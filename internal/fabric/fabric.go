// Package fabric models a rack-scale switched network: an
// output-queued top-of-rack switch connecting many host NICs, with
// per-port serialization, optional shared-uplink (backplane)
// contention, bounded egress queues and deterministic FIFO
// arbitration. It generalizes netsim's two-endpoint point-to-point
// Link to N endpoints; a fabric Port satisfies netsim.Sender, so the
// vhost back-end transmits through it exactly as through a Link port.
//
// The switch is output-queued: a frame arriving on an ingress port is
// serialized at the ingress line rate, optionally crosses the shared
// uplink (whose finite rate models an oversubscribed backplane), is
// routed to an egress port, and then waits for that port's wire. All
// contention is resolved at Send time through per-resource busy-until
// bookkeeping — the same technique netsim.Port uses — so arbitration
// is FIFO in event order and the whole fabric stays deterministic
// under the engine's (time, seq) ordering.
package fabric

import (
	"fmt"

	"es2/internal/netsim"
	"es2/internal/sim"
)

// Params configures the switch.
type Params struct {
	// PortGbps is the per-port line rate in gigabits per second
	// (default 40, matching the paper's 40GbE NICs).
	PortGbps float64
	// UplinkGbps is the shared backplane rate crossed by every
	// forwarded frame. Zero (the default) models a non-blocking
	// switch; a finite value models oversubscription.
	UplinkGbps float64
	// Delay is the port-to-port forwarding latency (propagation plus
	// switch pipeline; default 4µs — two NIC hops and a store-and-
	// forward stage).
	Delay sim.Time
	// QueueCap bounds each egress port's queue in frames; a frame
	// routed to a full egress queue is dropped (tail drop, default
	// 4096).
	QueueCap int
}

// DefaultParams returns the defaults described on Params.
func DefaultParams() Params {
	return Params{PortGbps: 40, Delay: 4 * sim.Microsecond, QueueCap: 4096}
}

// Router decides the egress port index for a frame arriving from src.
// Returning ok=false drops the frame (no route).
type Router func(src *Port, p *netsim.Packet) (egress int, ok bool)

// Switch is one output-queued switch.
type Switch struct {
	eng    *sim.Engine
	params Params
	// rates in bytes per nanosecond (uplinkRate 0 = non-blocking).
	portRate   float64
	uplinkRate float64
	ports      []*Port
	router     Router

	uplinkBusyUntil sim.Time

	// Forwarded counts frames that reached an egress wire; RouteDrops
	// counts frames the router refused; UplinkBytes counts traffic
	// crossing the backplane; UplinkBusy accumulates backplane
	// serialization time (utilization = UplinkBusy / window after a
	// ResetStats at window start).
	Forwarded   uint64
	RouteDrops  uint64
	UplinkBytes uint64
	UplinkBusy  sim.Time
}

// New creates a switch. Ports are added with AddPort and the
// forwarding decision installed with SetRouter before traffic flows.
func New(eng *sim.Engine, params Params) *Switch {
	if params.PortGbps <= 0 {
		params.PortGbps = 40
	}
	if params.QueueCap <= 0 {
		params.QueueCap = 4096
	}
	sw := &Switch{
		eng:      eng,
		params:   params,
		portRate: params.PortGbps / 8.0, // Gbit/s == bit/ns; /8 for bytes
	}
	if params.UplinkGbps > 0 {
		sw.uplinkRate = params.UplinkGbps / 8.0
	}
	return sw
}

// SetRouter installs the forwarding decision.
func (sw *Switch) SetRouter(r Router) { sw.router = r }

// AddPort attaches an endpoint (a host NIC's receive side) and returns
// its port, whose Send is the NIC's transmit side. Ports are indexed
// in creation order.
func (sw *Switch) AddPort(name string, dst netsim.Endpoint) *Port {
	p := &Port{sw: sw, index: len(sw.ports), name: name, dst: dst}
	p.egress = sim.NewDelayLine(sw.eng, p.deliver)
	sw.ports = append(sw.ports, p)
	return p
}

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// Port returns port i.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// ResetStats zeroes the switch-level and per-port counters (called at
// the start of the measurement window). Busy-until bookkeeping is
// untouched: in-flight frames keep their timing.
func (sw *Switch) ResetStats() {
	sw.Forwarded, sw.RouteDrops, sw.UplinkBytes, sw.UplinkBusy = 0, 0, 0, 0
	for _, p := range sw.ports {
		p.TxPkts, p.TxBytes, p.RxPkts, p.RxBytes, p.EgressDrops = 0, 0, 0, 0, 0
		p.LinkDrops, p.BlackholeDrops = 0, 0
	}
}

// Port is one switch port: a host NIC's attachment point. Send is the
// host's transmit direction; frames routed here are delivered to the
// attached endpoint.
type Port struct {
	sw    *Switch
	index int
	name  string
	dst   netsim.Endpoint

	ingressBusyUntil sim.Time
	egressBusyUntil  sim.Time
	egressQueued     int
	// egress carries frames routed here to dst. Each frame's egress
	// serialization ends after the previous one's, so delivery
	// instants never decrease.
	egress *sim.DelayLine[egressFrame]

	// Chaos impairment windows (see SetLinkDown/SetDegraded/
	// SetBlackhole). Each is an absolute instant; the impairment is
	// active while the clock is before it.
	downUntil      sim.Time
	degradeUntil   sim.Time
	degradeFactor  float64
	blackholeUntil sim.Time

	// TxPkts/TxBytes count frames sent into the switch by this port's
	// host; RxPkts/RxBytes count frames delivered out to it;
	// EgressDrops counts tail drops at this port's egress queue.
	TxPkts, TxBytes uint64
	RxPkts, RxBytes uint64
	EgressDrops     uint64

	// LinkDrops counts frames lost to a down link (either direction,
	// including frames already in flight toward this port when it went
	// down); BlackholeDrops counts frames silently discarded at this
	// port's egress during a blackhole window.
	LinkDrops      uint64
	BlackholeDrops uint64

	// SendFault, when non-nil, is consulted once per frame after the
	// send is counted — the same wire-fault hook netsim.Port exposes;
	// the fault injector owns the closure and its accounting.
	SendFault func() netsim.FaultAction
}

// Index returns the port's index in creation order.
func (p *Port) Index() int { return p.index }

// Name returns the port's label.
func (p *Port) Name() string { return p.name }

// SetLinkDown takes the port's link down until the given instant:
// frames the host sends and frames routed toward it — including
// frames already serialized and in flight when the link drops — are
// discarded and counted in LinkDrops. Repeated calls extend, never
// shorten, the window.
func (p *Port) SetLinkDown(until sim.Time) {
	if until > p.downUntil {
		p.downUntil = until
	}
}

// SetDegraded runs the port's wire at factor (in (0, 1)) of its line
// rate until the given instant, in both directions.
func (p *Port) SetDegraded(until sim.Time, factor float64) {
	p.degradeUntil = until
	p.degradeFactor = factor
}

// SetBlackhole silently discards frames routed to this port's egress
// until the given instant — the switch-side failure mode where the
// host's own transmissions still pass. Repeated calls extend the
// window.
func (p *Port) SetBlackhole(until sim.Time) {
	if until > p.blackholeUntil {
		p.blackholeUntil = until
	}
}

// Impaired reports whether frames routed to this port are currently
// being discarded (down link or blackholed egress). A degraded port is
// slow, not impaired.
func (p *Port) Impaired() bool {
	now := p.sw.eng.Now()
	return now < p.downUntil || now < p.blackholeUntil
}

// lineRate returns the port's effective line rate at the given
// instant, honoring an active degradation window.
func (p *Port) lineRate(at sim.Time) float64 {
	if at < p.degradeUntil {
		return p.sw.portRate * p.degradeFactor
	}
	return p.sw.portRate
}

// serTime returns the serialization time of n bytes at rate bytes/ns,
// floored at 1ns like netsim.
func serTime(n int, rate float64) sim.Time {
	t := sim.Time(float64(n) / rate)
	if t < 1 {
		t = 1
	}
	return t
}

// Send implements netsim.Sender: the frame is serialized at the
// ingress wire, crosses the shared uplink, is routed, queues at the
// egress port, is serialized there and delivered after the forwarding
// delay. All resource bookkeeping happens synchronously here, so
// frames arbitrate FIFO in event order.
func (p *Port) Send(pkt *netsim.Packet) {
	sw := p.sw
	if sw.router == nil {
		panic("fabric: switch has no router")
	}
	now := sw.eng.Now()
	p.TxPkts++
	p.TxBytes += uint64(pkt.Bytes)

	// A down link cannot transmit at all: the frame dies in the NIC
	// without occupying the wire.
	if now < p.downUntil {
		p.LinkDrops++
		return
	}

	// Ingress serialization at the sending NIC's line rate. The wire
	// time is paid before the fault hook fires, mirroring netsim.Port:
	// a dropped frame still occupied the sender's wire.
	start := now
	if p.ingressBusyUntil > start {
		start = p.ingressBusyUntil
	}
	inDone := start + serTime(pkt.Bytes, p.lineRate(now))
	p.ingressBusyUntil = inDone

	dup := false
	if p.SendFault != nil {
		switch p.SendFault() {
		case netsim.FaultDrop:
			return
		case netsim.FaultDup:
			dup = true
		}
	}

	// Shared uplink: every forwarded frame crosses the backplane once.
	upDone := inDone
	if sw.uplinkRate > 0 {
		us := upDone
		if sw.uplinkBusyUntil > us {
			us = sw.uplinkBusyUntil
		}
		ut := serTime(pkt.Bytes, sw.uplinkRate)
		upDone = us + ut
		sw.uplinkBusyUntil = upDone
		sw.UplinkBusy += ut
	}
	sw.UplinkBytes += uint64(pkt.Bytes)

	ei, ok := sw.router(p, pkt)
	if !ok || ei < 0 || ei >= len(sw.ports) {
		sw.RouteDrops++
		return
	}
	out := sw.ports[ei]
	if out.dst == nil {
		panic(fmt.Sprintf("fabric: port %d (%s) has no attached endpoint", ei, out.name))
	}

	// Chaos impairments at the egress: a down link drops visibly (the
	// counter is the flap's blast radius), a blackhole drops silently
	// at the switch.
	if now < out.downUntil {
		out.LinkDrops++
		return
	}
	if now < out.blackholeUntil {
		out.BlackholeDrops++
		return
	}

	// Egress admission: tail drop at a full output queue.
	if out.egressQueued >= sw.params.QueueCap {
		out.EgressDrops++
		return
	}
	out.egressQueued++

	es := upDone
	if out.egressBusyUntil > es {
		es = out.egressBusyUntil
	}
	outDone := es + serTime(pkt.Bytes, out.lineRate(now))
	out.egressBusyUntil = outDone
	sw.Forwarded++

	// Annotate the causal chain with the fabric traversal; the transit
	// time itself lands in the chain's wire segment at delivery.
	pkt.Chain.AddHop()
	if dup {
		pkt.Chain.AddHop()
	}

	deliverAt := outDone + sw.params.Delay
	if dup {
		// Link-level duplication: the copy rides the same egress slot
		// and is released on its own by whichever endpoint consumes it.
		q := *pkt
		out.egress.At(deliverAt, egressFrame{pkt: &q, dup: true})
	}
	out.egress.At(deliverAt, egressFrame{pkt: pkt})
}

// egressFrame is one frame on its way out of an egress port.
type egressFrame struct {
	pkt *netsim.Packet
	// dup marks a link-level duplicate, which holds no egress queue
	// slot of its own.
	dup bool
}

// deliver hands a frame to the attached endpoint at the end of its
// egress transit, which is the instant the delivery fires.
func (p *Port) deliver(f egressFrame) {
	if !f.dup {
		p.egressQueued--
	}
	// The link may have dropped while the frame was in flight on the
	// egress wire; those bits are lost too.
	if p.sw.eng.Now() < p.downUntil {
		p.LinkDrops++
		return
	}
	p.RxPkts++
	p.RxBytes += uint64(f.pkt.Bytes)
	p.dst.Receive(f.pkt)
}

// QueueDelay reports how long a frame sent now would wait before its
// ingress serialization starts.
func (p *Port) QueueDelay() sim.Time {
	if d := p.ingressBusyUntil - p.sw.eng.Now(); d > 0 {
		return d
	}
	return 0
}

// EgressQueued reports frames currently committed to this port's
// egress queue (scheduled but not yet delivered).
func (p *Port) EgressQueued() int { return p.egressQueued }
