package workloads

import (
	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/loadgen"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// OpenLoopClient drives open-loop request streams. Unlike RPCClient's
// closed loop — where each completion triggers the next request, so the
// system can never be offered more load than it absorbs — arrivals here
// are armed on the simulation clock by a loadgen arrival process and
// fire regardless of outstanding work.
// Offered load that the system cannot keep up with becomes backlog and,
// past each stream's outstanding cap, shed requests: the generator can
// push the host into queueing collapse and measure where that happens.
//
// A stream runs on either side of the wire. AddStream puts it inside a
// guest VM, where each sub-request is work charged to a vCPU (the rack's
// client VMs); AddPeerStream puts it on the external peer, which sends
// requests toward the guest under test (the single-host testbed). Both
// share one arrival, admission, shedding, gathering and billing path;
// the side only decides how a sub-request is sent and at which stage
// its response completes.
//
// Determinism: every stream samples interarrivals from a private RNG
// fork that is independent of the engine's RNG and never observes
// completions, so the arrival sequence is a pure function of the load
// spec and seed — identical across configurations under test.
type OpenLoopClient struct {
	// Causal, when non-nil, opens a causal chain per sub-request and
	// records it at completion.
	Causal *causal.Probe

	// RT resolves phase multipliers and diurnal scaling against the sim
	// clock; shared by every client of a run.
	RT *loadgen.Runtime

	// Offered counts arrivals, Admitted those that entered the system,
	// Shed those dropped at a full outstanding cap, Completed finished
	// logical requests (all fan-out legs gathered). Sent counts
	// sub-requests reaching the wire; BytesReceived counts response
	// payload.
	Offered       uint64
	Admitted      uint64
	Shed          uint64
	Completed     uint64
	Sent          uint64
	BytesReceived uint64

	// Per-phase slices of the counters above, indexed by profile phase.
	// A request is attributed to the phase of its arrival instant.
	PhaseOffered   []uint64
	PhaseShed      []uint64
	PhaseCompleted []uint64

	// hists receive every completion's latency (per-host and
	// cluster-wide spectra); phaseHists are the shared per-phase
	// spectra, both owned and reset by the test bed.
	hists      []*metrics.LogHistogram
	phaseHists []*metrics.LogHistogram

	streams []*OpenLoopStream
	// starts arms each stream's first arrival draw, bound once to
	// scheduleNext on the first stream's engine.
	starts *sim.DelayLine[*OpenLoopStream]
}

// StreamConfig describes one open-loop stream: an arrival process
// driving a fixed fan-out of flows at a (multiplier-scaled) base rate.
type StreamConfig struct {
	// Flows are the stream's flow ids, one per fan-out leg; a logical
	// request issues one sub-request on every flow and completes when
	// all responses have gathered.
	Flows []int
	// RatePerSec is the stream's base arrival rate before profile
	// multipliers.
	RatePerSec float64
	// Sampler draws interarrival gaps (owns its private RNG fork).
	Sampler *loadgen.Sampler
	// ReqBytes/RespBytes size each sub-request and its response.
	ReqBytes, RespBytes int
	// MaxOutstanding sheds arrivals beyond this many logical requests
	// in flight (0 = unbounded).
	MaxOutstanding int
	// Start delays the first arrival draw, staggering streams. It must
	// not decrease from one stream of a client to the next.
	Start sim.Time
}

// NewOpenLoopClient creates an open-loop client with rt's profile.
// Completions observe into phaseHists (indexed by phase, shared across
// clients) and into every hist.
func NewOpenLoopClient(rt *loadgen.Runtime, phaseHists []*metrics.LogHistogram, hists ...*metrics.LogHistogram) *OpenLoopClient {
	return &OpenLoopClient{
		RT:             rt,
		phaseHists:     phaseHists,
		hists:          hists,
		PhaseOffered:   make([]uint64, rt.NumPhases()),
		PhaseShed:      make([]uint64, rt.NumPhases()),
		PhaseCompleted: make([]uint64, rt.NumPhases()),
	}
}

// openReq is one logical in-flight request: fan-out legs still
// outstanding, the arrival instant, and the phase it is billed to.
// A stream's pending map holds it by value.
type openReq struct {
	remaining int
	started   sim.Time
	phase     int
}

// OpenLoopStream is one arrival process. The constructor that built it
// (AddStream or AddPeerStream) fixes its side of the wire through send.
type OpenLoopStream struct {
	c   *OpenLoopClient
	eng *sim.Engine
	// send issues one sub-request of logical request id on a flow.
	send func(flowID int, id int64, chain *causal.Chain)

	flows          []int
	rate           float64
	sampler        *loadgen.Sampler
	reqBytes       int
	respBytes      int
	maxOutstanding int

	// Arrivals counts this stream's arrival events (the reconciliation
	// invariant: the sum over streams equals the client's Offered).
	Arrivals uint64

	outstanding int
	seq         int64
	pending     map[int64]openReq

	// onArrival (an arrival event) and redraw (a dormant re-poll) are
	// the stream's two timer callbacks, bound once.
	onArrival, redraw func()
}

// newStream registers one stream whose sub-requests go out through
// send, and arms its first arrival draw on the client's start line. A
// start before the previous stream's panics before the stream is
// registered, so the callers register its flows only after this.
func (c *OpenLoopClient) newStream(eng *sim.Engine, cfg StreamConfig, send func(int, int64, *causal.Chain)) *OpenLoopStream {
	s := &OpenLoopStream{
		c: c, eng: eng, send: send,
		flows: cfg.Flows, rate: cfg.RatePerSec, sampler: cfg.Sampler,
		reqBytes: cfg.ReqBytes, respBytes: cfg.RespBytes,
		maxOutstanding: cfg.MaxOutstanding,
		pending:        make(map[int64]openReq),
	}
	if c.starts == nil {
		c.starts = sim.NewDelayLine(eng, (*OpenLoopStream).scheduleNext)
	}
	c.starts.After(cfg.Start+1, s)
	s.onArrival = func() {
		s.arrive()
		s.scheduleNext()
	}
	s.redraw = s.scheduleNext
	c.streams = append(c.streams, s)
	return s
}

// guestStream is a stream inside a guest VM: each sub-request is a TX
// task on the vCPU the stream is pinned to, and the stream is the
// guest.FlowHandler of its flows.
type guestStream struct {
	*OpenLoopStream
	kern *guest.Kernel
	v    *vmm.VCPU

	// queued holds the sub-requests whose TX tasks wait on v, in
	// enqueue order. A vCPU runs one priority's tasks FIFO, so sent,
	// the tasks' completion bound once, pops its own task's entry.
	queued sim.Ring[subRequest]
	sent   func()
}

// subRequest is one queued sub-request: its flow, logical request id
// and causal chain.
type subRequest struct {
	flow  int
	id    int64
	chain *causal.Chain
}

// AddStream registers a guest-side stream on kern, pinned to the vCPU
// its first flow hashes to, and arms its first arrival draw. Responses
// complete at guest-rx. Streams must be added in non-decreasing
// cfg.Start order; an earlier start panics and registers nothing.
func (c *OpenLoopClient) AddStream(kern *guest.Kernel, cfg StreamConfig) {
	vcpus := kern.VM.VCPUs
	g := &guestStream{kern: kern, v: vcpus[cfg.Flows[0]%len(vcpus)]}
	g.sent = g.transmitHead
	g.OpenLoopStream = c.newStream(kern.Engine(), cfg, g.issue)
	for _, fid := range cfg.Flows {
		kern.RegisterFlow(fid, g)
	}
}

// issue charges one sub-request's TX cost to the stream's vCPU,
// mirroring RPCFlow.
func (g *guestStream) issue(flowID int, id int64, chain *causal.Chain) {
	cost := g.kern.JitterCost(g.kern.Costs.TXCost(g.reqBytes, true))
	g.queued.Push(subRequest{flow: flowID, id: id, chain: chain})
	g.v.EnqueueTask(vmm.NewTask("openloop-req", vmm.PrioTask, cost, g.sent))
}

// transmitHead ends the head sub-request's TX task.
func (g *guestStream) transmitHead() {
	r := g.queued.Pop()
	g.transmit(r.flow, r.id, r.chain)
}

// transmit posts the sub-request, resuming via WaitTX on a full ring.
// There is no supersession: open-loop requests are never retried, a
// full ring simply delays them (and the backlog shows it).
func (g *guestStream) transmit(flowID int, id int64, chain *causal.Chain) {
	if !g.kern.Dev.Transmit(g.v, g.request(&g.kern.Pool, flowID, id, chain)) {
		g.kern.Dev.WaitTXFlow(flowID, func() { g.transmit(flowID, id, chain) })
		return
	}
	g.c.Sent++
}

// RXCost implements guest.FlowHandler.
func (g *guestStream) RXCost(p *netsim.Packet) sim.Time {
	return g.kern.Costs.RXCost(p.Bytes)
}

// HandleRX implements guest.FlowHandler.
func (g *guestStream) HandleRX(p *netsim.Packet, _ *vmm.VCPU) {
	g.respond(p, causal.StageGuestRX)
}

// peerStream is a stream on the external peer: requests go out through
// the peer at the arrival instant, and the stream is the PeerFlow of
// its one flow.
type peerStream struct {
	*OpenLoopStream
	pe *Peer
}

// AddPeerStream registers a peer-side stream on pe and arms its first
// arrival draw. cfg.Flows must hold exactly one flow: there is one
// host under test, so there is no fan-out. Responses complete at wire.
// As with AddStream, starts must not decrease.
func (c *OpenLoopClient) AddPeerStream(pe *Peer, cfg StreamConfig) {
	p := &peerStream{pe: pe}
	p.OpenLoopStream = c.newStream(pe.Eng, cfg, p.issue)
	pe.Register(cfg.Flows[0], p)
}

// issue sends one request toward the guest.
func (p *peerStream) issue(flowID int, id int64, chain *causal.Chain) {
	p.pe.Send(p.request(&p.pe.Pool, flowID, id, chain))
	p.c.Sent++
}

// PeerReceive implements PeerFlow.
func (p *peerStream) PeerReceive(pkt *netsim.Packet) {
	p.respond(pkt, causal.StageWire)
}

// Arrivals sums the per-stream arrival counts. Streams count arrivals
// independently of the client's Offered counter, so the two reconcile
// exactly (the offered-rate invariant the report exposes).
func (c *OpenLoopClient) Arrivals() uint64 {
	var n uint64
	for _, s := range c.streams {
		n += s.Arrivals
	}
	return n
}

// Backlog is the number of logical requests currently in flight across
// all streams — the open-loop queue the closed-loop client cannot grow.
func (c *OpenLoopClient) Backlog() int {
	n := 0
	for _, s := range c.streams {
		n += s.outstanding
	}
	return n
}

// ResetStats zeroes the window counters (called at warmup end).
// In-flight requests are kept — their queue pressure is real — but
// marked so their completions are not billed to the window: counted
// completions stay a subset of counted arrivals, mirroring the
// window-end truncation of late arrivals.
func (c *OpenLoopClient) ResetStats() {
	c.Offered, c.Admitted, c.Shed, c.Completed, c.Sent, c.BytesReceived = 0, 0, 0, 0, 0, 0
	for i := range c.PhaseOffered {
		c.PhaseOffered[i], c.PhaseShed[i], c.PhaseCompleted[i] = 0, 0, 0
	}
	for _, s := range c.streams {
		s.Arrivals = 0
		for id, r := range s.pending {
			r.phase = -1
			s.pending[id] = r
		}
	}
}

// scheduleNext arms the next arrival. The effective rate is the base
// rate scaled by the profile multiplier at the draw instant; a dormant
// stream (multiplier zero) re-polls on the runtime's tick instead of
// dividing by zero.
func (s *OpenLoopStream) scheduleNext() {
	mult := s.c.RT.Multiplier(s.eng.Now())
	if mult <= 0 {
		s.eng.After(s.c.RT.DormantTick(), s.redraw)
		return
	}
	mean := sim.Time(1e9 / (s.rate * mult))
	d := s.sampler.Interarrival(mean)
	s.eng.After(d, s.onArrival)
}

// arrive is one open-loop arrival: count it against the phase in
// effect, shed it if the stream's outstanding cap is full, otherwise
// admit it and send a sub-request on every fan-out leg, each with a
// causal chain opened at the arrival instant.
func (s *OpenLoopStream) arrive() {
	c := s.c
	now := s.eng.Now()
	ph := c.RT.PhaseIndexAt(now)
	s.Arrivals++
	c.Offered++
	if ph < len(c.PhaseOffered) {
		c.PhaseOffered[ph]++
	}
	if s.maxOutstanding > 0 && s.outstanding >= s.maxOutstanding {
		c.Shed++
		if ph < len(c.PhaseShed) {
			c.PhaseShed[ph]++
		}
		return
	}
	c.Admitted++
	s.outstanding++
	s.seq++
	id := s.seq
	s.pending[id] = openReq{remaining: len(s.flows), started: now, phase: ph}
	for _, fid := range s.flows {
		s.send(fid, id, c.Causal.Start(fid, id, now))
	}
}

// request builds one sub-request packet from pool.
func (s *OpenLoopStream) request(pool *netsim.Pool, flowID int, id int64, chain *causal.Chain) *netsim.Packet {
	p := pool.Get()
	p.Bytes, p.Kind, p.Flow = s.reqBytes, guest.KindRequest, flowID
	p.ReqID, p.RespBytes = id, s.respBytes
	p.Chain = chain
	return p
}

// respond handles one response segment. The last segment of a response
// closes its fan-out leg, completing the leg's chain at stage closes;
// the last leg gathers the logical request and records its latency
// against the arrival's phase.
func (s *OpenLoopStream) respond(p *netsim.Packet, closes causal.Stage) {
	defer p.Release()
	if p.Kind != guest.KindResponse {
		return
	}
	c := s.c
	c.BytesReceived += uint64(p.Bytes)
	if p.Seq != int64(p.Segs-1) {
		return
	}
	req, ok := s.pending[p.ReqID]
	if !ok {
		return
	}
	now := s.eng.Now()
	c.Causal.Complete(p.Chain, closes, now)
	req.remaining--
	if req.remaining > 0 {
		s.pending[p.ReqID] = req
		return // scatter/gather: wait for the other legs
	}
	delete(s.pending, p.ReqID)
	s.outstanding--
	if req.phase < 0 {
		return // admitted before the window: drains without billing
	}
	d := now - req.started
	c.Completed++
	if req.phase < len(c.PhaseCompleted) {
		c.PhaseCompleted[req.phase]++
	}
	for _, h := range c.hists {
		h.Observe(d)
	}
	if req.phase < len(c.phaseHists) && c.phaseHists[req.phase] != nil {
		c.phaseHists[req.phase].Observe(d)
	}
}
