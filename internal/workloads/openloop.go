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

// OpenLoopClient drives open-loop request streams from inside a guest
// VM. Unlike RPCClient's closed loop — where each completion triggers
// the next request, so the system can never be offered more load than
// it absorbs — arrivals here are armed on the simulation clock by a
// loadgen arrival process and fire regardless of outstanding work.
// Offered load that the system cannot keep up with becomes backlog and,
// past each stream's outstanding cap, shed requests: the generator can
// push the host into queueing collapse and measure where that happens.
//
// Determinism: every stream samples interarrivals from a private RNG
// fork that is independent of the engine's RNG and never observes
// completions, so the arrival sequence is a pure function of the load
// spec and seed — identical across configurations under test.
type OpenLoopClient struct {
	Kern *guest.Kernel

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
	// Start delays the first arrival draw, staggering streams.
	Start sim.Time
}

// NewOpenLoopClient creates an open-loop client on kern. Completions
// observe into phaseHists (indexed by phase, shared across clients) and
// into every hist.
func NewOpenLoopClient(kern *guest.Kernel, rt *loadgen.Runtime, phaseHists []*metrics.LogHistogram, hists ...*metrics.LogHistogram) *OpenLoopClient {
	return &OpenLoopClient{
		Kern: kern, RT: rt,
		phaseHists:     phaseHists,
		hists:          hists,
		PhaseOffered:   make([]uint64, rt.NumPhases()),
		PhaseShed:      make([]uint64, rt.NumPhases()),
		PhaseCompleted: make([]uint64, rt.NumPhases()),
	}
}

// openReq is one logical in-flight request: fan-out legs still
// outstanding, the arrival instant, and the phase it is billed to.
type openReq struct {
	remaining int
	started   sim.Time
	phase     int
}

// OpenLoopStream is one arrival process. It implements
// guest.FlowHandler for the response direction of all its flows.
type OpenLoopStream struct {
	c *OpenLoopClient
	v *vmm.VCPU

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
	pending     map[int64]*openReq
}

// AddStream registers one open-loop stream, pinned to the vCPU its
// first flow hashes to, and arms its first arrival draw.
func (c *OpenLoopClient) AddStream(cfg StreamConfig) *OpenLoopStream {
	vcpus := c.Kern.VM.VCPUs
	s := &OpenLoopStream{
		c: c, v: vcpus[cfg.Flows[0]%len(vcpus)],
		flows: cfg.Flows, rate: cfg.RatePerSec, sampler: cfg.Sampler,
		reqBytes: cfg.ReqBytes, respBytes: cfg.RespBytes,
		maxOutstanding: cfg.MaxOutstanding,
		pending:        make(map[int64]*openReq),
	}
	for _, fid := range cfg.Flows {
		c.Kern.RegisterFlow(fid, s)
	}
	c.streams = append(c.streams, s)
	c.Kern.Engine().After(cfg.Start+1, s.scheduleNext)
	return s
}

// Streams returns the registered streams in creation order.
func (c *OpenLoopClient) Streams() []*OpenLoopStream { return c.streams }

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
		for _, r := range s.pending {
			r.phase = -1
		}
	}
}

// scheduleNext arms the next arrival. The effective rate is the base
// rate scaled by the profile multiplier at the draw instant; a dormant
// stream (multiplier zero) re-polls on the runtime's tick instead of
// dividing by zero.
func (s *OpenLoopStream) scheduleNext() {
	eng := s.c.Kern.Engine()
	mult := s.c.RT.Multiplier(eng.Now())
	if mult <= 0 {
		eng.After(s.c.RT.DormantTick(), s.scheduleNext)
		return
	}
	mean := sim.Time(1e9 / (s.rate * mult))
	d := s.sampler.Interarrival(mean)
	eng.After(d, func() {
		s.arrive()
		s.scheduleNext()
	})
}

// arrive is one open-loop arrival: count it against the phase in
// effect, shed it if the stream's outstanding cap is full, otherwise
// admit and issue a sub-request on every fan-out leg.
func (s *OpenLoopStream) arrive() {
	c := s.c
	now := c.Kern.Engine().Now()
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
	s.pending[id] = &openReq{remaining: len(s.flows), started: now, phase: ph}
	for _, fid := range s.flows {
		s.issue(fid, id)
	}
}

// issue charges one sub-request's TX cost to the stream's vCPU and
// opens its causal chain at initiation, mirroring RPCFlow.
func (s *OpenLoopStream) issue(flowID int, id int64) {
	kern := s.c.Kern
	chain := s.c.Causal.Start(flowID, id, kern.Engine().Now())
	cost := kern.JitterCost(kern.Costs.TXCost(s.reqBytes, true))
	s.v.EnqueueTask(vmm.NewTask("openloop-req", vmm.PrioTask, cost, func() {
		s.transmit(flowID, id, chain)
	}))
}

// transmit posts the sub-request, resuming via WaitTX on a full ring.
// There is no supersession: open-loop requests are never retried, a
// full ring simply delays them (and the backlog shows it).
func (s *OpenLoopStream) transmit(flowID int, id int64, chain *causal.Chain) {
	pkt := &netsim.Packet{
		Bytes: s.reqBytes, Kind: guest.KindRequest, Flow: flowID,
		Payload: &Req{ID: id, RespBytes: s.respBytes},
		Unit:    causal.Unit{Chain: chain},
	}
	if !s.c.Kern.Dev.Transmit(s.v, pkt) {
		s.c.Kern.Dev.WaitTXFlow(flowID, func() { s.transmit(flowID, id, chain) })
		return
	}
	s.c.Sent++
}

// RXCost implements guest.FlowHandler.
func (s *OpenLoopStream) RXCost(p *netsim.Packet) sim.Time {
	return s.c.Kern.Costs.RXCost(p.Bytes)
}

// HandleRX implements guest.FlowHandler: a response's last segment
// closes one fan-out leg; the last leg gathers the logical request and
// records its latency against the arrival's phase.
func (s *OpenLoopStream) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	if p.Kind != guest.KindResponse {
		return
	}
	c := s.c
	c.BytesReceived += uint64(p.Bytes)
	r, _ := p.Payload.(*Resp)
	if r == nil || r.Seg != r.Segs-1 {
		return
	}
	req, ok := s.pending[r.ReqID]
	if !ok {
		return
	}
	now := c.Kern.Engine().Now()
	c.Causal.Complete(p.Chain, causal.StageGuestRX, now)
	req.remaining--
	if req.remaining > 0 {
		return // scatter/gather: wait for the other legs
	}
	delete(s.pending, r.ReqID)
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

// OpenLoopPeer is the single-host analogue of OpenLoopClient: the
// external generator (the testbed's second server) initiating requests
// open-loop toward the guest, replacing the closed-loop Memaslap when a
// load spec is active. Fan-out is always single — there is one host
// under test.
type OpenLoopPeer struct {
	peer *Peer

	// Causal, when non-nil, opens a causal chain per request.
	Causal *causal.Probe

	// RT resolves phase multipliers against the sim clock.
	RT *loadgen.Runtime

	// Counters as in OpenLoopClient.
	Offered   uint64
	Admitted  uint64
	Shed      uint64
	Completed uint64

	PhaseOffered   []uint64
	PhaseShed      []uint64
	PhaseCompleted []uint64

	// Lat aggregates all completions; PhaseLat splits them by the
	// arrival's phase.
	Lat      *metrics.LogHistogram
	PhaseLat []*metrics.LogHistogram

	streams []*olPeerStream
}

// olPeerStream is one peer-side arrival process on one connection.
type olPeerStream struct {
	o              *OpenLoopPeer
	flow           int
	rate           float64
	sampler        *loadgen.Sampler
	reqBytes       int
	respBytes      int
	maxOutstanding int

	Arrivals uint64

	outstanding int
	seq         int64
	pending     map[int64]*openReq
}

// NewOpenLoopPeer creates the generator on pe with rt's profile.
func NewOpenLoopPeer(pe *Peer, rt *loadgen.Runtime) *OpenLoopPeer {
	o := &OpenLoopPeer{
		peer: pe, RT: rt,
		Lat:            metrics.NewLogHistogram(),
		PhaseOffered:   make([]uint64, rt.NumPhases()),
		PhaseShed:      make([]uint64, rt.NumPhases()),
		PhaseCompleted: make([]uint64, rt.NumPhases()),
	}
	o.PhaseLat = make([]*metrics.LogHistogram, rt.NumPhases())
	for i := range o.PhaseLat {
		o.PhaseLat[i] = metrics.NewLogHistogram()
	}
	return o
}

// AddStream opens one connection driven by cfg's arrival process
// (cfg.Flows must hold exactly one id: single fan-out).
func (o *OpenLoopPeer) AddStream(cfg StreamConfig) {
	s := &olPeerStream{
		o: o, flow: cfg.Flows[0], rate: cfg.RatePerSec, sampler: cfg.Sampler,
		reqBytes: cfg.ReqBytes, respBytes: cfg.RespBytes,
		maxOutstanding: cfg.MaxOutstanding,
		pending:        make(map[int64]*openReq),
	}
	o.peer.Register(s.flow, s)
	o.streams = append(o.streams, s)
	o.peer.Eng.After(cfg.Start+1, s.scheduleNext)
}

// Backlog is the number of requests currently in flight.
func (o *OpenLoopPeer) Backlog() int {
	n := 0
	for _, s := range o.streams {
		n += s.outstanding
	}
	return n
}

// Arrivals sums the per-stream arrival counts (reconciles with
// Offered).
func (o *OpenLoopPeer) Arrivals() uint64 {
	var n uint64
	for _, s := range o.streams {
		n += s.Arrivals
	}
	return n
}

// ResetStats zeroes the window counters and latency spectra. In-flight
// requests are kept but unbilled, as in OpenLoopClient.ResetStats.
func (o *OpenLoopPeer) ResetStats() {
	o.Offered, o.Admitted, o.Shed, o.Completed = 0, 0, 0, 0
	for i := range o.PhaseOffered {
		o.PhaseOffered[i], o.PhaseShed[i], o.PhaseCompleted[i] = 0, 0, 0
	}
	o.Lat.Reset()
	for _, h := range o.PhaseLat {
		h.Reset()
	}
	for _, s := range o.streams {
		s.Arrivals = 0
		for _, r := range s.pending {
			r.phase = -1
		}
	}
}

func (s *olPeerStream) scheduleNext() {
	eng := s.o.peer.Eng
	mult := s.o.RT.Multiplier(eng.Now())
	if mult <= 0 {
		eng.After(s.o.RT.DormantTick(), s.scheduleNext)
		return
	}
	mean := sim.Time(1e9 / (s.rate * mult))
	d := s.sampler.Interarrival(mean)
	eng.After(d, func() {
		s.arrive()
		s.scheduleNext()
	})
}

func (s *olPeerStream) arrive() {
	o := s.o
	now := o.peer.Eng.Now()
	ph := o.RT.PhaseIndexAt(now)
	s.Arrivals++
	o.Offered++
	if ph < len(o.PhaseOffered) {
		o.PhaseOffered[ph]++
	}
	if s.maxOutstanding > 0 && s.outstanding >= s.maxOutstanding {
		o.Shed++
		if ph < len(o.PhaseShed) {
			o.PhaseShed[ph]++
		}
		return
	}
	o.Admitted++
	s.outstanding++
	s.seq++
	id := s.seq
	s.pending[id] = &openReq{remaining: 1, started: now, phase: ph}
	o.peer.Send(&netsim.Packet{
		Bytes: s.reqBytes, Kind: guest.KindRequest, Flow: s.flow,
		Payload: &Req{ID: id, RespBytes: s.respBytes},
		Unit:    causal.Unit{Chain: o.Causal.Start(s.flow, id, now)},
	})
}

// PeerReceive implements PeerFlow.
func (s *olPeerStream) PeerReceive(p *netsim.Packet) {
	if p.Kind != guest.KindResponse {
		return
	}
	r, _ := p.Payload.(*Resp)
	if r == nil || r.Seg != r.Segs-1 {
		return
	}
	req, ok := s.pending[r.ReqID]
	if !ok {
		return
	}
	o := s.o
	now := o.peer.Eng.Now()
	o.Causal.Complete(p.Chain, causal.StageWire, now)
	delete(s.pending, r.ReqID)
	s.outstanding--
	if req.phase < 0 {
		return // admitted before the window: drains without billing
	}
	d := now - req.started
	o.Completed++
	if req.phase < len(o.PhaseCompleted) {
		o.PhaseCompleted[req.phase]++
	}
	o.Lat.Observe(d)
	if req.phase < len(o.PhaseLat) {
		o.PhaseLat[req.phase].Observe(d)
	}
}
