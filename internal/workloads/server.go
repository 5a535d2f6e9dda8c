package workloads

import (
	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

const (
	// segBytes is the MSS used to segment responses.
	segBytes = 1448
	// synCost is the extra softirq CPU to establish a connection.
	synCost = 1500 * sim.Nanosecond
	// backlog bounds connections accepted by the stack but not yet
	// picked up by a worker (the listen(2) backlog). A SYN arriving
	// with the backlog full is dropped — the client's retransmission
	// timer turns such drops into the connection-time blow-up of
	// Fig. 9 ("suspending event overflow").
	backlog = 48
)

// Server is the guest request/response server that stands in for
// Memcached, Apache and the Httperf target, with one worker process per
// vCPU. Connections hash to workers by flow id, as a multi-threaded
// server with per-CPU workers would behave.
//
// It installs itself as the kernel's default flow handler: SYNs are
// answered from softirq context (as the TCP stack does) and requests
// are queued to process-context workers. A request packet carries its
// header in netsim.Packet's ReqID and RespBytes; each response segment
// carries ReqID, its index in Seq and the segment count in Segs.
type Server struct {
	Kern        *guest.Kernel
	serviceCost sim.Time

	workers []*worker
	pending map[int]bool // accepted-not-yet-served connections, by flow

	// Served counts responses sent; SYNDrops counts SYNs dropped at a
	// full backlog.
	Served   uint64
	SYNDrops uint64
}

// StartServer installs the server on the guest, charging serviceCost
// of application CPU per request.
func StartServer(kern *guest.Kernel, serviceCost sim.Time) *Server {
	s := &Server{Kern: kern, serviceCost: serviceCost, pending: make(map[int]bool)}
	for _, v := range kern.VM.VCPUs {
		w := &worker{srv: s, v: v}
		w.send = w.sendResponse
		s.workers = append(s.workers, w)
	}
	kern.SetDefaultHandler(s)
	return s
}

// RXCost implements guest.FlowHandler.
func (s *Server) RXCost(p *netsim.Packet) sim.Time {
	switch p.Kind {
	case guest.KindSYN:
		return s.Kern.Costs.RXBase + synCost + s.Kern.Costs.AckTX
	case guest.KindTCPAck:
		return s.Kern.Costs.AckRX
	default:
		return s.Kern.Costs.RXCost(p.Bytes)
	}
}

// HandleRX implements guest.FlowHandler. A request passes to its
// worker, which releases it; every other packet ends here.
func (s *Server) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	switch p.Kind {
	case guest.KindSYN:
		flow, seq := p.Flow, p.Seq
		p.Release()
		// SYN handled in softirq. A fresh connection needs a backlog
		// slot; with the backlog full the SYN is silently dropped and
		// the client's retransmission timer governs recovery. A
		// retransmitted SYN for a still-pending connection just gets
		// its SYN/ACK again.
		if !s.pending[flow] {
			if len(s.pending) >= backlog {
				s.SYNDrops++
				return
			}
			s.pending[flow] = true
		}
		ack := s.Kern.Pool.Get()
		ack.Bytes, ack.Kind, ack.Flow, ack.Seq = 66, guest.KindSYNACK, flow, seq
		s.Kern.Dev.Transmit(v, ack)
	case guest.KindRequest:
		w := s.workers[p.Flow%len(s.workers)]
		w.enqueue(p)
	default:
		p.Release()
	}
}

// worker is one per-vCPU application process. It serves one request
// at a time, so the request it has taken off q waits in the fields
// below while its serve task runs and its response goes out.
type worker struct {
	srv  *Server
	v    *vmm.VCPU
	q    sim.Ring[*netsim.Packet]
	busy bool

	// flow, id, respBytes and chain are the request in service, copied
	// out of its packet; segs is its response's segment count and from
	// the next segment to transmit.
	flow      int
	id        int64
	respBytes int
	chain     *causal.Chain
	segs      int
	from      int
	// send ends the serve task and resumes a transmit parked on a full
	// ring; it is bound once.
	send func()
}

func (w *worker) enqueue(p *netsim.Packet) {
	w.q.Push(p)
	if !w.busy {
		w.busy = true
		w.next()
	}
}

func (w *worker) next() {
	p, ok := w.q.TryPop()
	if !ok {
		w.busy = false
		return
	}

	// The worker accepting the request frees the connection's backlog
	// slot (accept(2) semantics), copies the request out and releases
	// its packet.
	delete(w.srv.pending, p.Flow)
	w.flow, w.id, w.respBytes, w.chain = p.Flow, p.ReqID, p.RespBytes, p.Chain
	p.Release()

	w.segs = (w.respBytes + segBytes - 1) / segBytes
	w.from = 0
	// Application service plus the stack cost of producing the
	// response segments, charged as one process-context task.
	cost := w.srv.serviceCost
	rem := w.respBytes
	for i := 0; i < w.segs; i++ {
		n := segBytes
		if rem < n {
			n = rem
		}
		cost += w.srv.Kern.Costs.TXCost(n, true)
		rem -= n
	}
	w.v.EnqueueTask(vmm.NewTask("serve", vmm.PrioTask, cost, w.send))
}

// sendResponse transmits the response segments from w.from on,
// resuming via WaitTX on a full ring. The request's causal chain (if
// any) rides the last segment back — the one whose arrival completes
// the request.
func (w *worker) sendResponse() {
	for ; w.from < w.segs; w.from++ {
		i := w.from
		n := w.respBytes - i*segBytes
		if n > segBytes {
			n = segBytes
		}
		pkt := w.srv.Kern.Pool.Get()
		pkt.Bytes, pkt.Kind, pkt.Flow, pkt.Seq = n, guest.KindResponse, w.flow, int64(i)
		pkt.ReqID, pkt.Segs = w.id, int32(w.segs) // at most 1 MiB of response
		if i == w.segs-1 {
			pkt.Chain = w.chain
		}
		if !w.srv.Kern.Dev.Transmit(w.v, pkt) {
			// Park on the pair the flow hashes to: only its completions
			// free the ring this segment is waiting for.
			w.srv.Kern.Dev.WaitTXFlow(w.flow, w.send)
			return
		}
	}
	w.srv.Served++
	w.next()
}
