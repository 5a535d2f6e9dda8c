package workloads

import (
	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
)

// Memaslap reproduces the paper's Memcached load: a closed-loop
// generator keeping a fixed number of requests outstanding over a pool
// of pre-established connections, with a get/set ratio of 9:1
// (Section VI-E: 256 concurrent requests from 16 threads).
type Memaslap struct {
	peer  *Peer
	conns []int
	seq   int64
	count int64

	// Causal, when non-nil, opens a causal chain per request and
	// records it at the response's last segment.
	Causal *causal.Probe

	// Completed counts responses; Lat aggregates request latencies.
	Completed uint64
	Lat       *metrics.LogHistogram

	started map[int64]sim.Time
}

// Memaslap's request and response sizes (memaslap defaults: 64B keys,
// 1KB values) and its get:set cycle length (10 → 9 gets, 1 set).
const (
	getReqBytes, getRespBytes = 105, 1088
	setReqBytes, setRespBytes = 1130, 71
	getEvery                  = 10
)

// synTimeout is ApacheBench's and Httperf's SYN retransmission timer
// (a substitution EXPERIMENTS.md records).
const synTimeout = 1 * sim.Second

// StartMemaslap opens conns pre-established connections and keeps
// concurrency requests outstanding. Its outstanding-request table and
// the peer's send line are sized once for that initial burst.
func StartMemaslap(pe *Peer, ids *FlowIDs, conns, concurrency int) *Memaslap {
	m := &Memaslap{peer: pe, Lat: metrics.NewLogHistogram(), started: make(map[int64]sim.Time, concurrency)}
	for i := 0; i < conns; i++ {
		fid := ids.Next()
		m.conns = append(m.conns, fid)
		pe.Register(fid, m)
	}
	pe.out.Grow(concurrency)
	for i := 0; i < concurrency; i++ {
		m.sendNext(m.conns[i%len(m.conns)])
	}
	return m
}

func (m *Memaslap) sendNext(flow int) {
	m.count++
	reqBytes, respBytes := getReqBytes, getRespBytes
	if m.count%getEvery == 0 {
		reqBytes, respBytes = setReqBytes, setRespBytes
	}
	id := m.seq
	m.seq++
	now := m.peer.Eng.Now()
	m.started[id] = now
	p := m.peer.Pool.Get()
	p.Bytes, p.Kind, p.Flow = reqBytes, guest.KindRequest, flow
	p.ReqID, p.RespBytes = id, respBytes
	p.Chain = m.Causal.Start(flow, id, now)
	m.peer.Send(p)
}

// PeerReceive implements PeerFlow: a response completes one request and
// immediately issues the next on the same connection (closed loop).
func (m *Memaslap) PeerReceive(p *netsim.Packet) {
	defer p.Release()
	if p.Kind != guest.KindResponse || p.Seq != int64(p.Segs-1) {
		return // wait for the last segment
	}
	if t0, ok := m.started[p.ReqID]; ok {
		delete(m.started, p.ReqID)
		// The response's wire leg back to the generator closes the chain.
		m.Causal.Complete(p.Chain, causal.StageWire, m.peer.Eng.Now())
		m.Lat.Observe(m.peer.Eng.Now() - t0)
		m.Completed++
		m.sendNext(p.Flow)
	}
}

// ApacheBench reproduces the paper's Apache load: N concurrent workers
// each looping connect → GET → full 8KB response → next (Section VI-E:
// 16 concurrent threads, 8KB static pages).
type ApacheBench struct {
	peer *Peer

	// Completed counts full responses; BytesReceived counts payload.
	Completed     uint64
	BytesReceived uint64
	ConnTime      *metrics.LogHistogram

	PageBytes int
	seq       int64
}

// abReqBytes is the size of ApacheBench's GET request.
const abReqBytes = 120

type abWorker struct {
	ab        *ApacheBench
	flow      int
	connSeq   int64
	reqID     int64
	synSent   sim.Time
	state     int // 0 idle, 1 awaiting SYNACK, 2 awaiting response
	retxTimer sim.Handle
}

// StartApacheBench launches the load generator with the given
// concurrency.
func StartApacheBench(pe *Peer, ids *FlowIDs, concurrency, pageBytes int) *ApacheBench {
	ab := &ApacheBench{peer: pe, PageBytes: pageBytes, ConnTime: metrics.NewLogHistogram()}
	for i := 0; i < concurrency; i++ {
		w := &abWorker{ab: ab, flow: ids.Next()}
		pe.Register(w.flow, w)
		w.connect()
	}
	return ab
}

func (w *abWorker) connect() {
	w.state = 1
	w.connSeq++
	w.synSent = w.ab.peer.Eng.Now()
	w.sendSYN()
}

func (w *abWorker) sendSYN() {
	seq := w.connSeq
	syn := w.ab.peer.Pool.Get()
	syn.Bytes, syn.Kind, syn.Flow, syn.Seq = 74, guest.KindSYN, w.flow, seq
	w.ab.peer.Port.Send(syn)
	w.retxTimer = w.ab.peer.Eng.After(synTimeout, func() {
		if w.state == 1 && w.connSeq == seq {
			w.sendSYN() // SYN lost or unanswered: retransmit
		}
	})
}

// PeerReceive implements PeerFlow.
func (w *abWorker) PeerReceive(p *netsim.Packet) {
	defer p.Release()
	switch p.Kind {
	case guest.KindSYNACK:
		if w.state != 1 || p.Seq != w.connSeq {
			return
		}
		w.state = 2
		w.retxTimer.Cancel()
		w.ab.ConnTime.Observe(w.ab.peer.Eng.Now() - w.synSent)
		w.reqID = w.ab.seq
		w.ab.seq++
		req := w.ab.peer.Pool.Get()
		req.Bytes, req.Kind, req.Flow = abReqBytes, guest.KindRequest, w.flow
		req.ReqID, req.RespBytes = w.reqID, w.ab.PageBytes
		w.ab.peer.Send(req)
	case guest.KindResponse:
		if w.state != 2 || p.ReqID != w.reqID {
			return
		}
		w.ab.BytesReceived += uint64(p.Bytes)
		if p.Seq == int64(p.Segs-1) {
			w.ab.Completed++
			w.connect() // next request, new connection (ab default)
		}
	}
}

// Httperf reproduces the Fig. 9 experiment: connections initiated
// open-loop at a fixed rate; the connection time (SYN to SYN/ACK,
// including any retransmission delays) is the metric. Only the
// connection train is open-loop — each established connection then
// runs one closed-loop request like the other clients here. Sustained
// open-loop request load (arrivals armed on the clock regardless of
// completions, bursty processes, day-shaped profiles) is OpenLoopClient
// in openloop.go, driven by internal/loadgen.
type Httperf struct {
	peer *Peer

	PageBytes int

	// ConnTime aggregates per-connection establishment times.
	ConnTime *metrics.LogHistogram
	// Initiated and Established count connections.
	Initiated   uint64
	Established uint64
	Responses   uint64

	ids *FlowIDs
	seq int64
}

type httperfConn struct {
	h       *Httperf
	flow    int
	synSent sim.Time
	state   int
	reqID   int64
}

// StartHttperf begins initiating connections at rate per second.
func StartHttperf(pe *Peer, ids *FlowIDs, rate float64, pageBytes int) *Httperf {
	h := &Httperf{peer: pe, PageBytes: pageBytes, ConnTime: metrics.NewLogHistogram(), ids: ids}
	interval := sim.Time(1e9 / rate)
	var tick func()
	tick = func() {
		h.initiate()
		pe.Eng.After(interval, tick)
	}
	pe.Eng.After(interval, tick)
	return h
}

func (h *Httperf) initiate() {
	c := &httperfConn{h: h, flow: h.ids.Next(), state: 1, synSent: h.peer.Eng.Now()}
	h.peer.Register(c.flow, c)
	h.Initiated++
	c.sendSYN()
}

func (c *httperfConn) sendSYN() {
	syn := c.h.peer.Pool.Get()
	syn.Bytes, syn.Kind, syn.Flow, syn.Seq = 74, guest.KindSYN, c.flow, 1
	c.h.peer.Port.Send(syn)
	c.h.peer.Eng.After(synTimeout, func() {
		if c.state == 1 {
			c.sendSYN()
		}
	})
}

// PeerReceive implements PeerFlow.
func (c *httperfConn) PeerReceive(p *netsim.Packet) {
	defer p.Release()
	switch p.Kind {
	case guest.KindSYNACK:
		if c.state != 1 {
			return
		}
		c.state = 2
		c.h.Established++
		c.h.ConnTime.Observe(c.h.peer.Eng.Now() - c.synSent)
		c.reqID = c.h.seq
		c.h.seq++
		req := c.h.peer.Pool.Get()
		req.Bytes, req.Kind, req.Flow = 110, guest.KindRequest, c.flow
		req.ReqID, req.RespBytes = c.reqID, c.h.PageBytes
		c.h.peer.Send(req)
	case guest.KindResponse:
		if c.state != 2 {
			return
		}
		if p.ReqID == c.reqID && p.Seq == int64(p.Segs-1) {
			c.state = 3
			c.h.Responses++
		}
	}
}
