package workloads

import (
	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// Req is the application payload of a KindRequest packet.
type Req struct {
	ID int64
	// RespBytes is the size of the response the server must produce.
	RespBytes int
	// Service overrides the server's default per-request service cost
	// when non-zero.
	Service sim.Time
}

// Resp is the application payload of a KindResponse packet.
type Resp struct {
	ReqID int64
	Seg   int
	Segs  int
}

// ServerConfig parameterizes the guest request/response server that
// stands in for Memcached, Apache, and the Httperf target.
type ServerConfig struct {
	// ServiceCost is the default application CPU per request.
	ServiceCost sim.Time
	// SegBytes is the MSS used to segment responses.
	SegBytes int
	// SYNCost is the extra softirq CPU to establish a connection.
	SYNCost sim.Time
	// Backlog bounds connections accepted by the stack but not yet
	// picked up by a worker (the listen(2) backlog). A SYN arriving
	// with the backlog full is dropped — the client's retransmission
	// timer turns such drops into the connection-time blow-up of
	// Fig. 9 ("suspending event overflow").
	Backlog int
}

// DefaultServerConfig returns sane defaults (MSS 1448, backlog 48).
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ServiceCost: 8 * sim.Microsecond,
		SegBytes:    1448,
		SYNCost:     1500 * sim.Nanosecond,
		Backlog:     48,
	}
}

// Server is a guest application serving request/response traffic with
// one worker process per vCPU. Connections hash to workers by flow id,
// as a multi-threaded server with per-CPU workers would behave.
//
// It installs itself as the kernel's default flow handler: SYNs are
// answered from softirq context (as the TCP stack does) and requests
// are queued to process-context workers.
type Server struct {
	Kern *guest.Kernel
	Cfg  ServerConfig

	workers []*worker
	pending map[int]bool // accepted-not-yet-served connections, by flow

	// Conns counts accepted connections; Served counts responses sent;
	// SynAcks counts handshakes answered; SYNDrops counts SYNs dropped
	// at a full backlog.
	Conns    uint64
	Served   uint64
	SynAcks  uint64
	SYNDrops uint64
}

// StartServer installs the server on the guest.
func StartServer(kern *guest.Kernel, cfg ServerConfig) *Server {
	if cfg.SegBytes <= 0 {
		cfg.SegBytes = 1448
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 48
	}
	s := &Server{Kern: kern, Cfg: cfg, pending: make(map[int]bool)}
	for _, v := range kern.VM.VCPUs {
		s.workers = append(s.workers, &worker{srv: s, v: v})
	}
	kern.SetDefaultHandler(s)
	return s
}

// RXCost implements guest.FlowHandler.
func (s *Server) RXCost(p *netsim.Packet) sim.Time {
	switch p.Kind {
	case guest.KindSYN:
		return s.Kern.Costs.RXBase + s.Cfg.SYNCost + s.Kern.Costs.AckTX
	case guest.KindTCPAck:
		return s.Kern.Costs.AckRX
	default:
		return s.Kern.Costs.RXCost(p.Bytes)
	}
}

// HandleRX implements guest.FlowHandler.
func (s *Server) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	switch p.Kind {
	case guest.KindSYN:
		// SYN handled in softirq. A fresh connection needs a backlog
		// slot; with the backlog full the SYN is silently dropped and
		// the client's retransmission timer governs recovery. A
		// retransmitted SYN for a still-pending connection just gets
		// its SYN/ACK again.
		if !s.pending[p.Flow] {
			if len(s.pending) >= s.Cfg.Backlog {
				s.SYNDrops++
				return
			}
			s.pending[p.Flow] = true
			s.Conns++
		}
		ack := &netsim.Packet{Bytes: 66, Kind: guest.KindSYNACK, Flow: p.Flow, Seq: p.Seq}
		if s.Kern.Dev.Transmit(v, ack) {
			s.SynAcks++
		}
	case guest.KindRequest:
		w := s.workers[p.Flow%len(s.workers)]
		w.enqueue(p)
	}
}

// worker is one per-vCPU application process.
type worker struct {
	srv  *Server
	v    *vmm.VCPU
	q    sim.Ring[*netsim.Packet]
	busy bool
}

func (w *worker) enqueue(p *netsim.Packet) {
	w.q.Push(p)
	if !w.busy {
		w.busy = true
		w.next()
	}
}

func (w *worker) next() {
	if w.q.Len() == 0 {
		w.busy = false
		return
	}
	p := w.q.Pop()

	// The worker accepting the request frees the connection's backlog
	// slot (accept(2) semantics).
	delete(w.srv.pending, p.Flow)

	req, _ := p.Payload.(*Req)
	if req == nil {
		req = &Req{RespBytes: 128}
	}
	service := w.srv.Cfg.ServiceCost
	if req.Service > 0 {
		service = req.Service
	}
	segBytes := w.srv.Cfg.SegBytes
	segs := (req.RespBytes + segBytes - 1) / segBytes
	if segs == 0 {
		segs = 1
	}
	// Application service plus the stack cost of producing the
	// response segments, charged as one process-context task.
	cost := service
	rem := req.RespBytes
	for i := 0; i < segs; i++ {
		n := segBytes
		if rem < n {
			n = rem
		}
		cost += w.srv.Kern.Costs.TXCost(n, true)
		rem -= n
	}
	w.v.EnqueueTask(vmm.NewTask("serve", vmm.PrioTask, cost, func() {
		w.sendResponse(p.Flow, p.Chain, req, segs, 0)
	}))
}

// sendResponse transmits the response segments, resuming via WaitTX on
// a full ring. The request's causal chain (if any) rides the last
// segment back — the one whose arrival completes the request.
func (w *worker) sendResponse(flow int, chain *causal.Chain, req *Req, segs, from int) {
	segBytes := w.srv.Cfg.SegBytes
	for i := from; i < segs; i++ {
		n := req.RespBytes - i*segBytes
		if n > segBytes {
			n = segBytes
		}
		if n <= 0 {
			n = 1
		}
		pkt := &netsim.Packet{
			Bytes: n, Kind: guest.KindResponse, Flow: flow, Seq: int64(i),
			Payload: &Resp{ReqID: req.ID, Seg: i, Segs: segs},
		}
		if i == segs-1 {
			pkt.Chain = chain
		}
		if !w.srv.Kern.Dev.Transmit(w.v, pkt) {
			i := i
			// Park on the pair the flow hashes to: only its completions
			// free the ring this segment is waiting for.
			w.srv.Kern.Dev.WaitTXFlow(flow, func() { w.sendResponse(flow, chain, req, segs, i) })
			return
		}
	}
	w.srv.Served++
	w.next()
}
