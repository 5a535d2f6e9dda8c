package workloads

import (
	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
)

// Pinger reproduces the Fig. 7 experiment: the external server pings
// the tested VM at a fixed interval and records each round-trip time.
type Pinger struct {
	peer     *Peer
	flowID   int
	interval sim.Time
	bytes    int

	// Causal, when non-nil, opens a causal chain per probe and records
	// it at the reply's arrival.
	Causal *causal.Probe

	nextSeq int64
	sentAt  map[int64]sim.Time
	// next re-arms tick, bound once.
	next func()

	// RTTs is the time series of round-trip times, in milliseconds
	// (one point per reply, timestamped at the reply's arrival).
	RTTs metrics.Series
	// Hist aggregates the same RTTs for percentile reporting.
	Hist *metrics.LogHistogram
	// Lost counts echo requests with no reply by the end of the run
	// (still outstanding when inspected).
	Sent uint64
}

// StartPing installs a responder in the guest and begins probing every
// interval. ICMP payload is 56+8 bytes in a 98-byte frame, as ping
// defaults.
func StartPing(kern *guest.Kernel, pe *Peer, flowID int, interval sim.Time) *Pinger {
	guest.NewPingResponder(kern, flowID)
	p := &Pinger{
		peer: pe, flowID: flowID, interval: interval, bytes: 98,
		sentAt: make(map[int64]sim.Time),
		Hist:   metrics.NewLogHistogram(),
	}
	p.next = p.tick
	pe.Register(flowID, p)
	p.tick()
	return p
}

func (p *Pinger) tick() {
	seq := p.nextSeq
	p.nextSeq++
	p.sentAt[seq] = p.peer.Eng.Now()
	p.Sent++
	pkt := p.peer.Pool.Get()
	pkt.Bytes, pkt.Kind, pkt.Flow, pkt.Seq = p.bytes, guest.KindEcho, p.flowID, seq
	pkt.Chain = p.Causal.Start(p.flowID, seq, p.peer.Eng.Now())
	p.peer.Port.Send(pkt)
	p.peer.Eng.After(p.interval, p.next)
}

// PeerReceive implements PeerFlow: match the reply and record the RTT.
func (p *Pinger) PeerReceive(pkt *netsim.Packet) {
	defer pkt.Release()
	if pkt.Kind != guest.KindEchoReply {
		return
	}
	t0, ok := p.sentAt[pkt.Seq]
	if !ok {
		return
	}
	delete(p.sentAt, pkt.Seq)
	// The reply's wire leg back to the prober closes the chain.
	p.Causal.Complete(pkt.Chain, causal.StageWire, p.peer.Eng.Now())
	rtt := p.peer.Eng.Now() - t0
	p.RTTs.Append(p.peer.Eng.Now(), rtt.Millis())
	p.Hist.Observe(rtt)
}

// Outstanding reports unanswered probes.
func (p *Pinger) Outstanding() int { return len(p.sentAt) }
