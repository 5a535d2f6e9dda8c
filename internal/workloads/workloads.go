// Package workloads implements the benchmark applications of the
// paper's evaluation on both sides of the wire: the guest-side
// processes (netperf send loops, Memcached/Apache-style servers) and
// the external traffic generator/terminator that the second testbed
// server ran (netperf peers, ping, memaslap, ApacheBench, Httperf).
//
// The external peer is not under test: it models an unloaded machine
// whose per-action latency is a small constant, while all guest-side
// work is charged to vCPUs through the vmm task model.
package workloads

import (
	"es2/internal/netsim"
	"es2/internal/sim"
)

// Peer is the external server: the far endpoint of the testbed link.
// It dispatches incoming packets to per-flow protocol engines.
type Peer struct {
	Eng *sim.Engine
	// Port sends toward the guest host.
	Port *netsim.Port
	// Delay is the peer's per-action processing latency (stack +
	// application on an unloaded machine).
	Delay sim.Time
	// Pool recycles the packets the peer's generators and sinks build.
	Pool netsim.Pool

	flows map[int]PeerFlow
	// out holds packets for their processing delay. The delay is
	// constant, so send instants never decrease.
	out *sim.DelayLine[*netsim.Packet]

	// RetransmitRTO, when positive, enables go-back-N loss recovery in
	// peer-side TCP senders created afterwards (see TCPSource). Zero
	// models the lossless testbed.
	RetransmitRTO sim.Time
	// Retransmits counts retransmission timeouts across peer senders.
	Retransmits uint64

	// Unclaimed counts packets for unknown flows.
	Unclaimed uint64
}

// PeerFlow is the peer-side protocol engine of one flow. PeerReceive
// is the packet's terminal consumer: it releases p after its last read.
type PeerFlow interface {
	PeerReceive(p *netsim.Packet)
}

// NewPeer creates the external endpoint. Attach it to the link's far
// side and set Port to the direction toward the host under test.
func NewPeer(eng *sim.Engine, port *netsim.Port, delay sim.Time) *Peer {
	pe := &Peer{Eng: eng, Port: port, Delay: delay, flows: make(map[int]PeerFlow)}
	pe.out = sim.NewDelayLine(eng, pe.transmit)
	return pe
}

// Register binds a flow id to its peer-side engine.
func (pe *Peer) Register(id int, f PeerFlow) { pe.flows[id] = f }

// Receive implements netsim.Endpoint. A packet for an unknown flow is
// dropped unreleased.
func (pe *Peer) Receive(p *netsim.Packet) {
	if p.Released() {
		panic("workloads: released packet reached the peer")
	}
	if f, ok := pe.flows[p.Flow]; ok {
		f.PeerReceive(p)
		return
	}
	pe.Unclaimed++
}

// Send transmits a packet toward the guest after the peer's processing
// delay.
func (pe *Peer) Send(p *netsim.Packet) { pe.out.After(pe.Delay, p) }

// transmit puts a packet on the wire once its processing delay is over.
func (pe *Peer) transmit(p *netsim.Packet) { pe.Port.Send(p) }

// FlowIDs hands out unique flow identifiers within a scenario.
type FlowIDs struct{ next int }

// Next returns a fresh flow id.
func (f *FlowIDs) Next() int {
	f.next++
	return f.next
}
