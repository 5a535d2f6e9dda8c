// Package netsim provides the physical-network substrate: packets and
// full-duplex point-to-point links with serialization and propagation
// delay. It stands in for the testbed's back-to-back 40GbE NICs; the
// protocol endpoints (guest network stack, external traffic generator)
// live in the guest and workloads packages.
package netsim

import (
	"es2/internal/causal"
	"es2/internal/sim"
)

// Packet is one frame on the wire. Protocol semantics are carried by
// Kind/Flow/Seq and the application header, and interpreted by the
// endpoints.
//
// A packet taken from a Pool lives until its terminal consumer — the
// endpoint handler that reads it last — calls Release. Every other
// holder, drop paths included, lets go of it without releasing (see
// DESIGN.md, "Packet lifetime").
type Packet struct {
	// Bytes is the frame length used for serialization timing.
	Bytes int
	// Flow identifies the connection/stream the packet belongs to.
	Flow int
	// Seq is an endpoint-defined sequence number; a response segment's
	// index within its response.
	Seq int64
	// ReqID, RespBytes and Segs are the request/response header: the
	// request id both directions carry, the response size a request
	// asks for, and a response's segment count.
	ReqID     int64
	RespBytes int
	// Unit is the event-path probe's state riding this packet: the
	// per-request causal chain (nil when causal tracking is off) and
	// the packet's open span. Shallow copies made for duplicate
	// delivery share the chain pointer, which chain marks tolerate,
	// and time their own span.
	causal.Unit

	// pool is the free list the packet returns to (nil for a packet
	// built as a literal).
	pool *Pool
	// Segs, Kind and free share the packet's last word, which keeps a
	// packet in the 80-byte allocation size class. Kind tags the
	// protocol meaning (endpoint-defined).
	Segs int32
	Kind uint8
	// free marks a packet sitting in its pool's free list.
	free bool
}

// Pool is a LIFO free list of packets. It grows on demand and is never
// sized up front. Each guest kernel and the external peer own one; a
// pool is not safe for concurrent use, which a scenario's single event
// loop never needs.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet from the free list, or a new one.
func (p *Pool) Get() *Packet {
	n := len(p.free)
	if n == 0 {
		return &Packet{pool: p}
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	pkt.free = false
	return pkt
}

// Release zeroes the packet and returns it to the pool it came from.
// It is a no-op for a packet built as a literal, and panics on a
// packet already released: only a bug can release one twice.
func (pkt *Packet) Release() {
	pool := pkt.pool
	if pool == nil {
		return
	}
	if pkt.free {
		panic("netsim: packet released twice")
	}
	*pkt = Packet{pool: pool, free: true}
	pool.free = append(pool.free, pkt)
}

// Released reports whether the packet sits in its pool's free list.
// Endpoints check it on arrival: a released packet on the event path
// means some holder outlived the terminal consumer.
func (pkt *Packet) Released() bool { return pkt.free }

// FaultAction is the wire-fault decision for one frame (see the
// SendFault hook on Port).
type FaultAction uint8

const (
	// FaultNone delivers the frame normally.
	FaultNone FaultAction = iota
	// FaultDrop loses the frame after serialization: the sender paid
	// the wire time, the receiver sees nothing.
	FaultDrop
	// FaultDup delivers the frame twice (link-level duplication).
	FaultDup
)

// Endpoint receives packets from a link.
type Endpoint interface {
	Receive(p *Packet)
}

// Sender transmits packets onto a wire: a point-to-point link Port or
// a switch-fabric ingress port (internal/fabric). The vhost back-end
// holds a Sender for its egress, so the same device works back-to-back
// and rack-scale.
type Sender interface {
	Send(p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet)

// Receive implements Endpoint.
func (f EndpointFunc) Receive(p *Packet) { f(p) }

// Link is a full-duplex point-to-point link: two independent directed
// channels, each with a serialization rate and propagation delay.
type Link struct {
	eng *sim.Engine
	a2b *Port
	b2a *Port
}

// Port is one directed channel of a link; model code holds the Port for
// its sending direction.
type Port struct {
	eng       *sim.Engine
	rate      float64 // bytes per nanosecond
	delay     sim.Time
	busyUntil sim.Time
	dst       Endpoint
	// wire carries sent frames to dst: serialization makes each
	// frame's delivery instant later than the previous one's.
	wire *sim.DelayLine[*Packet]

	// PacketsSent and BytesSent count traffic through this port.
	PacketsSent uint64
	BytesSent   uint64

	// SendFault, when non-nil, is consulted once per frame after the
	// send is counted; the fault injector (internal/faults) owns the
	// closure and its accounting. Nil in normal operation.
	SendFault func() FaultAction
}

// NewLink creates a link with the given rate in gigabits per second and
// one-way propagation delay. Endpoints are attached with Attach.
func NewLink(eng *sim.Engine, gbps float64, delay sim.Time) *Link {
	if gbps <= 0 {
		panic("netsim: rate must be positive")
	}
	bytesPerNs := gbps / 8.0 // Gbit/s == bit/ns; /8 for bytes
	return &Link{eng: eng, a2b: newPort(eng, bytesPerNs, delay), b2a: newPort(eng, bytesPerNs, delay)}
}

func newPort(eng *sim.Engine, rate float64, delay sim.Time) *Port {
	p := &Port{eng: eng, rate: rate, delay: delay}
	p.wire = sim.NewDelayLine(eng, p.deliver)
	return p
}

// deliver hands a frame that has crossed the wire to the endpoint.
func (p *Port) deliver(pkt *Packet) { p.dst.Receive(pkt) }

// Attach wires endpoint a to one side and b to the other. PortA sends
// toward b; PortB sends toward a.
func (l *Link) Attach(a, b Endpoint) {
	l.a2b.dst = b
	l.b2a.dst = a
}

// PortA returns the sending port of side A (delivers to B).
func (l *Link) PortA() *Port { return l.a2b }

// PortB returns the sending port of side B (delivers to A).
func (l *Link) PortB() *Port { return l.b2a }

// Send transmits p: it is serialized after any frames already queued on
// this direction, then propagates, then is delivered to the remote
// endpoint.
func (p *Port) Send(pkt *Packet) {
	if p.dst == nil {
		panic("netsim: port has no attached endpoint")
	}
	now := p.eng.Now()
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	ser := sim.Time(float64(pkt.Bytes) / p.rate)
	if ser < 1 {
		ser = 1
	}
	done := start + ser
	p.busyUntil = done
	p.PacketsSent++
	p.BytesSent += uint64(pkt.Bytes)
	if p.SendFault != nil {
		switch p.SendFault() {
		case FaultDrop:
			return
		case FaultDup:
			// The copy shares the original's pool and is released on
			// its own by whichever endpoint consumes it.
			q := *pkt
			p.wire.At(done+p.delay, &q)
		}
	}
	p.wire.At(done+p.delay, pkt)
}

// QueueDelay reports how long a packet sent now would wait before its
// serialization starts (backlog on this direction).
func (p *Port) QueueDelay() sim.Time {
	if d := p.busyUntil - p.eng.Now(); d > 0 {
		return d
	}
	return 0
}
