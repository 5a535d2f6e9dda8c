package workloads

import (
	"fmt"

	"es2/internal/causal"
	"es2/internal/guest"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// RPCClient drives closed-loop request/response flows from inside a
// guest VM toward server VMs (which run the ordinary Server) reached
// across the wire — in the cluster runner, through the switch fabric.
// Each flow keeps exactly one request outstanding: the response's last
// segment triggers the next request. Unlike the external generators
// (Memaslap, ApacheBench), the client's side of the event path is
// itself virtualized, so ES2's savings apply on both ends of every
// RPC.
type RPCClient struct {
	Kern *guest.Kernel

	// Causal, when non-nil, opens a causal chain per request and
	// records it at completion (set before the first request fires).
	Causal *causal.Probe

	// Timeout arms a per-request deadline: an expired request is
	// retried with exponential backoff and deterministic jitter. Zero
	// (the default) keeps the legacy closed loop, which wedges forever
	// if the server dies — only chaos-aware runs should pay the
	// deadline bookkeeping. Set it before the first request: a client
	// with a Timeout allocates its flows' retry state there.
	Timeout sim.Time
	// Backoff is the first retry delay (default Timeout/4) and doubles
	// per consecutive timeout up to BackoffMax (default 8x Backoff);
	// each delay is jittered ±50% so retrying flows desynchronize.
	Backoff    sim.Time
	BackoffMax sim.Time
	// FailoverAfter is the consecutive-timeout threshold at which the
	// flow asks Failover to re-bind it to a surviving server; the
	// counter restarts after a successful migration. Zero disables.
	FailoverAfter int
	// Failover, when non-nil, re-routes the flow to another server and
	// reports whether it did (the cluster's chaos controller owns the
	// flow table).
	Failover func(flowID int) bool
	// NotifyComplete, when non-nil, observes every completed request
	// (the chaos controller's availability and MTTR bookkeeping).
	NotifyComplete func(at sim.Time)

	// Completed and Sent count requests across all flows;
	// BytesReceived counts response payload.
	Completed     uint64
	Sent          uint64
	BytesReceived uint64
	// Timeouts counts expired request deadlines, Retries re-issued
	// requests, and Migrated flows failed over to another server.
	Timeouts uint64
	Retries  uint64
	Migrated uint64

	// hists receive every completed request's latency (the per-host
	// and cluster-wide spectra in the cluster runner).
	hists []*metrics.LogHistogram
	// reqBytes and respBytes size every flow's requests and responses.
	reqBytes, respBytes int

	// flows holds the client's flows in creation order, in one slice
	// allocated for the count NewRPCClient was given. retries holds
	// their retry state, indexed like flows; a client allocates it at
	// its first request if it has a Timeout, so a client without one
	// never holds it.
	flows   []RPCFlow
	retries []retryState
	// starts issues each flow's first request. It is sized once for the
	// declared flow count and dropped when the last of them starts.
	starts *sim.DelayLine[*RPCFlow]
	rng    *sim.Rand
	// queues holds one attempt FIFO per vCPU, indexed by VCPU.ID.
	queues []*attemptQueue
}

// attemptQueue holds the request attempts whose rpc-req tasks are
// queued on one vCPU, in enqueue order. A vCPU runs one priority's
// tasks FIFO, so the task callback, bound once per vCPU rather than
// per flow, pops the attempt its own task was queued for. A flow may
// have several attempts queued at once: a retry can be issued while a
// superseded attempt still waits.
type attemptQueue struct {
	q    sim.Ring[attempt]
	done func()
}

// attempt is one queued request attempt: the flow and its attempt id.
type attempt struct {
	f  *RPCFlow
	id int64
}

// transmitHead ends the head attempt's rpc-req task.
func (q *attemptQueue) transmitHead() {
	a := q.q.Pop()
	a.f.transmit(a.id)
}

// retryState is one flow's retry machinery, held only by clients with
// a Timeout: the deadline of its latest attempt, its consecutive
// timeouts, its current backoff and the first attempt of its in-flight
// request.
type retryState struct {
	deadline sim.Handle
	attempts int
	backoff  sim.Time
	// attemptBase is the first attempt id of the in-flight logical
	// request: a response to ANY attempt in [attemptBase, reqID]
	// completes it. Accepting a late original response after a retry
	// went out is what keeps a timeout shorter than a transient RTT
	// from livelocking the flow (every attempt's response arriving
	// "stale" forever — retry-storm congestion collapse).
	attemptBase int64
}

// minRetryBackoff floors the retry delay so a degenerate spec (a
// timeout shorter than any achievable RTT) burns bounded events, not
// an unbounded same-instant retry storm.
const minRetryBackoff = sim.Microsecond

// RPCFlow is one closed-loop connection. It implements
// guest.FlowHandler for the response direction and keeps per-flow
// latency scalars (count/sum/max), cheap enough to hold for thousands
// of flows where a full histogram per flow would not be.
type RPCFlow struct {
	c  *RPCClient
	ID int
	v  *vmm.VCPU

	reqID   int64
	started sim.Time
	chain   *causal.Chain

	// Completed counts this flow's finished requests; LatSum and
	// LatMax summarize its latency over the measurement window.
	Completed uint64
	LatSum    sim.Time
	LatMax    sim.Time

	// idx is the flow's index in its client's flows and retries.
	idx int32
	// Migrated marks a flow re-bound to a surviving server during the
	// window.
	Migrated bool
}

// NewRPCClient creates a client on kern for the given number of flows,
// each issuing reqBytes requests and expecting respBytes responses,
// whose completions observe into every given histogram. The flows, the
// start line and the kernel's flow table are sized once for that
// count. The retry jitter generator forks off the engine's RNG here,
// during deterministic build.
func NewRPCClient(kern *guest.Kernel, flows, reqBytes, respBytes int, hists ...*metrics.LogHistogram) *RPCClient {
	c := &RPCClient{
		Kern: kern, hists: hists, rng: kern.Engine().Rand().Fork(),
		reqBytes: reqBytes, respBytes: respBytes,
		flows: make([]RPCFlow, 0, flows),
	}
	c.starts = sim.NewDelayLine(kern.Engine(), c.start)
	c.starts.Grow(flows)
	kern.ReserveFlows(flows)
	for range kern.VM.VCPUs {
		q := &attemptQueue{}
		q.done = q.transmitHead
		c.queues = append(c.queues, q)
	}
	return c
}

// AddFlow registers one closed-loop flow, pinned to the vCPU flows
// hash to (flow id modulo vCPU count, mirroring how connections hash
// to processes). The first request is issued `start` after creation;
// staggering flow starts avoids a synthetic thundering herd at t=0.
// Starts must not decrease from one AddFlow to the next, and a client
// takes at most the flow count it was created for: AddFlow panics
// otherwise.
func (c *RPCClient) AddFlow(id int, start sim.Time) *RPCFlow {
	n := len(c.flows)
	if n == cap(c.flows) {
		panic(fmt.Sprintf("workloads: flow %d added to an RPCClient created for %d flows", id, n))
	}
	f := &c.flows[:n+1][n]
	c.starts.After(start+1, f) // first: a start before the previous one panics here
	c.flows = c.flows[:n+1]
	vcpus := c.Kern.VM.VCPUs
	f.c, f.ID, f.v, f.idx = c, id, vcpus[id%len(vcpus)], int32(n)
	c.Kern.RegisterFlow(id, f)
	return f
}

// Flows returns the registered flows in creation order.
func (c *RPCClient) Flows() []RPCFlow { return c.flows }

// ResetStats zeroes the client-side counters and per-flow scalars
// (called at warmup end; the histograms are reset by their owner).
func (c *RPCClient) ResetStats() {
	c.Completed, c.Sent, c.BytesReceived = 0, 0, 0
	c.Timeouts, c.Retries, c.Migrated = 0, 0, 0
	for i := range c.flows {
		f := &c.flows[i]
		f.Completed, f.LatSum, f.LatMax, f.Migrated = 0, 0, 0, false
	}
}

// start issues a flow's first request. The last declared flow's start
// drops the start line, so its slots do not outlive set-up.
func (c *RPCClient) start(f *RPCFlow) {
	if int(f.idx) == cap(c.flows)-1 {
		c.starts = nil
	}
	f.sendNext()
}

// retry returns the flow's retry state, allocating every flow's at the
// client's first use.
func (f *RPCFlow) retry() *retryState {
	c := f.c
	if c.retries == nil {
		c.retries = make([]retryState, cap(c.flows))
	}
	return &c.retries[f.idx]
}

// sendNext starts the flow's next request: the latency clock starts
// here (request initiation), so the measured RPC time includes the
// client's own stack and scheduling delays — and, across retries, the
// full outage-recovery time: the end-to-end view a user of the
// cluster would see.
func (f *RPCFlow) sendNext() {
	f.started = f.c.Kern.Engine().Now()
	if f.c.Timeout > 0 {
		r := f.retry()
		r.attempts, r.backoff, r.attemptBase = 0, 0, f.reqID+1
	}
	f.issue()
}

// issue sends one attempt of the current request. The attempt's
// deadline is armed when the request actually reaches the wire
// (transmit), not here: like a real RTO, the timer starts at send, so
// time spent waiting in the vCPU's task queue under load cannot burn
// the timeout and spawn retries of requests that never left the host —
// the self-amplifying half of a retry storm. Each attempt opens a
// fresh causal chain (a retried attempt's stages telescope from its
// own issue instant, keeping stage sums exact); chains of attempts
// that never complete are simply never recorded.
func (f *RPCFlow) issue() {
	kern := f.c.Kern
	f.reqID++
	f.chain = f.c.Causal.Start(f.ID, f.reqID, kern.Engine().Now())
	cost := kern.JitterCost(kern.Costs.TXCost(f.c.reqBytes, true))
	q := f.c.queues[f.v.ID]
	q.q.Push(attempt{f: f, id: f.reqID})
	f.v.EnqueueTask(vmm.NewTask("rpc-req", vmm.PrioTask, cost, q.done))
}

// expired fires when attempt id's deadline lapses without a response:
// count the timeout, consider failing the flow over, and schedule a
// retry after the (jittered, doubling) backoff.
func (f *RPCFlow) expired(id int64) {
	if id != f.reqID {
		return // stale deadline for a completed attempt
	}
	r := f.retry()
	f.c.Timeouts++
	r.attempts++
	if f.c.FailoverAfter > 0 && r.attempts >= f.c.FailoverAfter &&
		f.c.Failover != nil && f.c.Failover(f.ID) {
		if !f.Migrated {
			f.Migrated = true
			f.c.Migrated++
		}
		r.attempts = 0
	}
	if r.backoff <= 0 {
		r.backoff = f.c.Backoff
		if r.backoff <= 0 {
			r.backoff = f.c.Timeout / 4
		}
	} else {
		r.backoff *= 2
	}
	if max := f.c.BackoffMax; max > 0 && r.backoff > max {
		r.backoff = max
	}
	if r.backoff < minRetryBackoff {
		r.backoff = minRetryBackoff
	}
	delay := f.c.rng.Jitter(r.backoff, 0.5)
	f.c.Kern.Engine().After(delay, func() {
		if id != f.reqID {
			return // a late response won the race against the retry
		}
		f.c.Retries++
		f.issue()
	})
}

// transmit posts the request, resuming via WaitTX on a full ring, and
// arms the attempt's deadline once the send succeeds. A superseded
// attempt (a newer one was issued while this task waited) is dropped
// rather than transmitted: sending it would only feed the server
// already-abandoned work.
func (f *RPCFlow) transmit(id int64) {
	if id != f.reqID {
		return
	}
	pkt := f.c.Kern.Pool.Get()
	pkt.Bytes, pkt.Kind, pkt.Flow = f.c.reqBytes, guest.KindRequest, f.ID
	pkt.ReqID, pkt.RespBytes = id, f.c.respBytes
	pkt.Chain = f.chain
	if !f.c.Kern.Dev.Transmit(f.v, pkt) {
		f.c.Kern.Dev.WaitTXFlow(f.ID, func() { f.transmit(id) })
		return
	}
	f.c.Sent++
	if f.c.Timeout > 0 {
		f.retry().deadline = f.c.Kern.Engine().After(f.c.Timeout, func() { f.expired(id) })
	}
}

// RXCost implements guest.FlowHandler.
func (f *RPCFlow) RXCost(p *netsim.Packet) sim.Time {
	return f.c.Kern.Costs.RXCost(p.Bytes)
}

// HandleRX implements guest.FlowHandler: the response's last segment
// completes the request and immediately issues the next (closed loop).
func (f *RPCFlow) HandleRX(p *netsim.Packet, v *vmm.VCPU) {
	defer p.Release()
	if p.Kind != guest.KindResponse {
		return
	}
	f.c.BytesReceived += uint64(p.Bytes)
	// Without retry state the in-flight request has one attempt, reqID.
	var r *retryState
	base := f.reqID
	if f.c.retries != nil {
		r = &f.c.retries[f.idx]
		base = r.attemptBase
	}
	if p.ReqID < base || p.ReqID > f.reqID || p.Seq != int64(p.Segs-1) {
		return
	}
	if r != nil {
		r.deadline.Cancel()
	}
	now := f.c.Kern.Engine().Now()
	// The response rode the request's chain back; the final guest-rx
	// segment closes at the same instant the latency clock stops.
	f.c.Causal.Complete(p.Chain, causal.StageGuestRX, now)
	d := now - f.started
	f.Completed++
	f.LatSum += d
	if d > f.LatMax {
		f.LatMax = d
	}
	f.c.Completed++
	for _, h := range f.c.hists {
		h.Observe(d)
	}
	if f.c.NotifyComplete != nil {
		f.c.NotifyComplete(now)
	}
	f.sendNext()
}
