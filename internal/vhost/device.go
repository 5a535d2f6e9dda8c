package vhost

import (
	"fmt"

	"es2/internal/causal"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/virtio"
)

// Device is one vhost-net instance: the in-kernel back-end of a guest's
// paravirtual NIC, with a TX and an RX handler scheduled by the
// device's I/O thread. It implements netsim.Endpoint for the host side
// of the wire.
type Device struct {
	Name   string
	IO     *IOThread
	TXQ    *virtio.Virtqueue
	RXQ    *virtio.Virtqueue
	Port   netsim.Sender
	Params Params

	// Hybrid enables ES2's hybrid I/O handling (Algorithm 1) with the
	// given Quota; otherwise the handlers run vanilla notification
	// mode.
	Hybrid bool
	Quota  int

	// Causal, when non-nil, is the host's event-path probe, called at
	// the back-end transitions (notify close, wire send, wire arrival,
	// used-ring publish). Nil costs nothing.
	Causal *causal.Probe

	// Sidecore enables ELVIS-style dedicated-core polling (Har'El et
	// al., ATC'13 — the paper's Section II-C "Others"): the TX handler
	// never re-enables guest notifications and never sleeps, busy-
	// polling the virtqueue instead. Guest I/O requests are exit-less,
	// but the worker burns its core even when the queue is empty.
	Sidecore bool

	// CoalesceCount and CoalesceTimer enable receive interrupt
	// moderation (the vIC-style alternative the paper's Section II-C
	// argues against): the guest is signaled only after CoalesceCount
	// packets have accumulated or CoalesceTimer has elapsed since the
	// first unsignaled packet. Zero values disable moderation (signal
	// per handler turn, the vhost default).
	CoalesceCount int
	CoalesceTimer sim.Time

	coalesced   int
	coalesceEvt sim.Handle
	// CoalesceFlushes counts timer-driven signals.
	CoalesceFlushes uint64

	tx  *txHandler
	rx  *rxHandler
	rng *sim.Rand

	backlog sim.Ring[*netsim.Packet] // the tap buffer

	// Wire-side statistics.
	TxPkts, TxBytes uint64
	RxPkts, RxBytes uint64
	// RxRingStarved counts turns that found no guest RX buffer;
	// BacklogDrops counts ingress packets dropped at the tap buffer.
	RxRingStarved uint64
	BacklogDrops  uint64
	// RePolls counts recovery re-enqueues of a handler that appeared
	// stuck behind a lost notification (see StartRePoll).
	RePolls uint64
}

// rxBudget is the per-turn packet budget of the RX handler (vhost's
// handle_rx weight).
const rxBudget = 64

// NewDevice wires a vhost device to its virtqueues, worker thread and
// wire port. quota is only meaningful with hybrid=true; the paper's
// poll_quota module parameter.
func NewDevice(name string, io *IOThread, txq, rxq *virtio.Virtqueue, port netsim.Sender, hybrid bool, quota int) (*Device, error) {
	if hybrid && quota <= 0 {
		return nil, fmt.Errorf("vhost: hybrid mode requires a positive quota")
	}
	if err := txq.Claim(); err != nil {
		return nil, err
	}
	if err := rxq.Claim(); err != nil {
		return nil, err
	}
	d := &Device{
		Name: name, IO: io, TXQ: txq, RXQ: rxq, Port: port,
		Params: io.params, Hybrid: hybrid, Quota: quota,
		rng: io.s.Engine().Rand().Fork(),
	}
	d.tx = &txHandler{dev: d}
	d.tx.send = d.tx.sendEffect
	d.rx = &rxHandler{dev: d}
	d.rx.recv = d.rx.recvEffect
	d.rx.signal = func() { d.RXQ.Signal() }
	txq.OnKick(d.tx.kicked)
	rxq.OnKick(d.rx.kicked)
	// vhost keeps RX-refill notifications suppressed unless starved for
	// guest buffers.
	rxq.SetNoNotify(true)
	return d, nil
}

// Receive implements netsim.Endpoint: ingress from the wire lands in
// the tap backlog and schedules the RX handler.
func (d *Device) Receive(p *netsim.Packet) {
	if d.backlog.Len() >= d.Params.BacklogCap {
		d.BacklogDrops++
		return
	}
	// Wire/fabric transit (plus any peer turnaround) closes here, and
	// backend-rx opens.
	d.Causal.Mark(&p.Unit, causal.StageWire, d.IO.s.Now())
	d.backlog.Push(p)
	d.IO.enqueue(d.rx)
}

// Backlog returns the current ingress backlog length.
func (d *Device) Backlog() int { return d.backlog.Len() }

// DropBacklog discards every queued ingress frame, counting them as
// backlog drops. Used by host-crash injection: the tap buffer does not
// survive the outage, while guest-RAM-resident state (the virtqueues)
// does. In-flight RX handler plans notice the head changed and abort
// safely.
func (d *Device) DropBacklog() int {
	n := d.backlog.Len()
	d.backlog.Clear()
	d.BacklogDrops += uint64(n)
	return n
}

// jitter perturbs a nominal handler cost by ±30% (copy-path and cache variance).
func (d *Device) jitter(c sim.Time) sim.Time { return d.rng.Jitter(c, 0.30) }

// moderated reports whether receive interrupt moderation is enabled.
func (d *Device) moderated() bool { return d.CoalesceCount > 1 || d.CoalesceTimer > 0 }

// noteRxPacket accumulates one packet toward the coalescing threshold
// and arms the flush timer on the first unsignaled packet.
func (d *Device) noteRxPacket() {
	if !d.moderated() {
		return
	}
	d.coalesced++
	if d.coalesced == 1 && d.CoalesceTimer > 0 {
		d.coalesceEvt = d.IO.s.Engine().After(d.CoalesceTimer, d.flushCoalesce)
	}
}

// flushCoalesce is the moderation timer: signal whatever accumulated.
func (d *Device) flushCoalesce() {
	if d.coalesced == 0 {
		return
	}
	d.coalesced = 0
	d.CoalesceFlushes++
	d.RXQ.Signal()
}

// takeSignal decides whether the turn-end signal should be emitted now
// under the active moderation policy (always true without moderation).
func (d *Device) takeSignal() bool {
	if !d.moderated() {
		return true
	}
	if d.coalesced >= d.CoalesceCount && d.CoalesceCount > 0 {
		d.coalesced = 0
		d.coalesceEvt.Cancel()
		return true
	}
	return false
}

// TXPolling reports whether the TX handler currently holds guest
// notifications disabled (ES2 polling mode engaged or mid-service).
func (d *Device) TXPolling() bool { return d.TXQ.KickSuppressed() }

// EnableSidecore switches the device to ELVIS-style dedicated-core
// polling: guest TX notifications are permanently suppressed and the
// TX handler starts busy-polling immediately. Mutually exclusive with
// the hybrid scheme.
func (d *Device) EnableSidecore() {
	if d.Hybrid {
		panic("vhost: sidecore polling and the hybrid scheme are mutually exclusive")
	}
	d.Sidecore = true
	d.TXQ.SetNoNotify(true)
	d.IO.enqueue(d.tx)
}

// ResetStats zeroes the wire statistics.
func (d *Device) ResetStats() {
	d.TxPkts, d.TxBytes, d.RxPkts, d.RxBytes = 0, 0, 0, 0
	d.RxRingStarved, d.BacklogDrops = 0, 0
}

// StartRePoll arms the lost-kick recovery poller: a periodic check
// that re-enqueues a handler when work is demonstrably waiting but no
// progress has been made for two consecutive periods. This models the
// defensive re-poll real vhost performs on queue state changes — a
// suspected lost ioeventfd must not wedge the queue forever.
//
// Two strikes are required because a single stale observation is
// normal: the worker may simply not have been scheduled yet.
func (d *Device) StartRePoll(period sim.Time) {
	if period <= 0 {
		panic("vhost: re-poll period must be positive")
	}
	var txStrikes, rxStrikes int
	var lastTxPopped, lastRxPkts uint64
	eng := d.IO.s.Engine()
	var tick func()
	tick = func() {
		// TX: descriptors are available, the guest is not suppressed
		// from kicking (so vhost believes it is idle and waiting for a
		// kick), yet nothing has been consumed.
		if d.TXQ.AvailLen() > 0 && !d.TXQ.KickSuppressed() && d.TXQ.Popped == lastTxPopped {
			txStrikes++
		} else {
			txStrikes = 0
		}
		lastTxPopped = d.TXQ.Popped
		if txStrikes >= 2 && !d.tx.queued {
			txStrikes = 0
			d.RePolls++
			d.IO.enqueue(d.tx)
		}
		// RX: wire packets wait in the backlog, guest buffers exist,
		// yet nothing has been delivered.
		if d.backlog.Len() > 0 && d.RXQ.AvailLen() > 0 && d.RxPkts == lastRxPkts {
			rxStrikes++
		} else {
			rxStrikes = 0
		}
		lastRxPkts = d.RxPkts
		if rxStrikes >= 2 && !d.rx.queued {
			rxStrikes = 0
			d.RePolls++
			d.IO.enqueue(d.rx)
		}
		eng.After(period, tick)
	}
	eng.After(period, tick)
}

// --- TX handler: Algorithm 1 ---

type txHandler struct {
	workBit
	dev      *Device
	workload int
	requeued bool

	// send is the effect plan returns for a descriptor, bound once.
	// The I/O thread runs one effect at a time, so the descriptor waits
	// here until send applies it.
	send func()
	desc virtio.Desc
}

// kicked is the ioeventfd callback: the guest's I/O request wakes the
// handler.
func (h *txHandler) kicked() { h.dev.IO.enqueue(h) }

func (h *txHandler) label() string { return "tx" }

// turnStart is Algorithm 1 lines 8-11: disable guest notifications if
// needed and reset the workload counter.
func (h *txHandler) turnStart() {
	h.workload = 0
	h.requeued = false
	if !h.dev.TXQ.KickSuppressed() {
		h.dev.TXQ.SetNoNotify(true)
	}
}

func (h *txHandler) plan() (sim.Time, func()) {
	dev := h.dev
	q := dev.TXQ
	if h.requeued {
		// Quota exhausted last step: the turn is over; we are already
		// back on the work queue with notifications still disabled.
		return 0, nil
	}
	desc, ok := q.Pop()
	if pkt := desc.Payload; pkt != nil {
		// Notify closes: the guest's doorbell (or suppressed-kick post)
		// has reached the back-end handler. The packet remembers whether
		// its doorbell took an exit, so the span lands on notify-exit or
		// notify-poll accordingly.
		dev.Causal.MarkNotify(&pkt.Unit, dev.IO.s.Now())
	}
	if !ok {
		if dev.Sidecore {
			// ELVIS-style polling never yields to notifications: pay
			// an empty-poll round and stay scheduled. This is the
			// wasted-cycles behaviour the paper contrasts the hybrid
			// scheme against.
			h.requeued = true
			dev.IO.requeue(h)
			dev.IO.act = actPoll
			return dev.Params.EmptyCheck, func() {}
		}
		// Queue drained before the quota: leave polling mode
		// (Algorithm 1 line 19): re-enable notifications, with the
		// standard race check against a concurrent guest add.
		q.SetNoNotify(false)
		if q.AvailLen() > 0 {
			q.SetNoNotify(true)
			dev.IO.act = actPoll
			return dev.Params.EmptyCheck, func() {}
		}
		return 0, nil
	}
	cost := dev.jitter(dev.Params.txCost(desc.Len))
	dev.IO.act = actTX
	h.desc = desc
	return cost, h.send
}

// sendEffect puts the planned descriptor's packet on the wire and
// completes the descriptor to the used ring.
func (h *txHandler) sendEffect() {
	dev, q, desc := h.dev, h.dev.TXQ, h.desc
	h.desc = virtio.Desc{}
	if pkt := desc.Payload; pkt != nil {
		dev.Causal.Mark(&pkt.Unit, causal.StageBackendTX, dev.IO.s.Now())
		dev.TxPkts++
		dev.TxBytes += uint64(pkt.Bytes)
		dev.Port.Send(pkt) // the wire owns the packet from here
	}
	q.PushUsed(desc)
	q.Signal() // TX completion; normally suppressed by the guest
	h.workload++
	if dev.Hybrid && h.workload >= dev.Quota {
		// Algorithm 1 line 16: wait for the next turn, keeping the
		// guest's notifications disabled (polling mode persists).
		h.requeued = true
		dev.IO.requeue(h)
	}
}

// --- RX handler ---

type rxHandler struct {
	workBit
	dev           *Device
	served        int
	requeued      bool
	pendingSignal bool

	// recv and signal are the effects plan returns, bound once. The
	// I/O thread runs one effect at a time, so the packet recv copies
	// waits in pkt.
	recv, signal func()
	pkt          *netsim.Packet
}

// kicked is the guest's RX-refill notification.
func (h *rxHandler) kicked() { h.dev.IO.enqueue(h) }

func (h *rxHandler) label() string { return "rx" }

func (h *rxHandler) turnStart() {
	h.served = 0
	h.requeued = false
	if !h.dev.RXQ.KickSuppressed() {
		h.dev.RXQ.SetNoNotify(true)
	}
}

func (h *rxHandler) plan() (sim.Time, func()) {
	dev := h.dev
	if h.requeued || dev.backlog.Len() == 0 || dev.RXQ.AvailLen() == 0 {
		// The turn is ending (quota, drained, or buffer-starved):
		// signal the guest once for the whole batch, as
		// vhost_signal does at the end of handle_rx — unless interrupt
		// moderation is holding the signal back.
		if h.pendingSignal {
			h.pendingSignal = false
			if dev.takeSignal() {
				dev.IO.act = actSignal
				return dev.Params.SignalCost, h.signal
			}
		}
		if h.requeued || dev.backlog.Len() == 0 {
			return 0, nil // wake on next Receive (or next turn)
		}
		// No guest buffers: ask the guest to kick us after refilling.
		dev.RxRingStarved++
		dev.RXQ.SetNoNotify(false)
		if dev.RXQ.AvailLen() > 0 {
			dev.RXQ.SetNoNotify(true)
			dev.IO.act = actPoll
			return dev.Params.EmptyCheck, func() {}
		}
		return 0, nil
	}
	h.pkt = *dev.backlog.Front()
	cost := dev.jitter(dev.Params.rxCost(h.pkt.Bytes))
	dev.IO.act = actRX
	return cost, h.recv
}

// recvEffect copies the planned backlog packet into a guest RX buffer
// and publishes it on the used ring.
func (h *rxHandler) recvEffect() {
	dev, pkt := h.dev, h.pkt
	h.pkt = nil
	if dev.backlog.Len() == 0 || *dev.backlog.Front() != pkt {
		return // raced with a drop; nothing to do
	}
	dev.backlog.Pop()
	desc, ok := dev.RXQ.Pop()
	if !ok {
		dev.BacklogDrops++
		return
	}
	desc.Len = pkt.Bytes
	desc.Payload = pkt
	// Backend-rx closes (tap backlog wait + copy into the guest
	// buffer); the buffer now waits in the used ring.
	dev.Causal.Mark(&pkt.Unit, causal.StageBackendRX, dev.IO.s.Now())
	dev.RXQ.PushUsed(desc)
	h.pendingSignal = true
	dev.noteRxPacket()
	dev.RxPkts++
	dev.RxBytes += uint64(pkt.Bytes)
	h.served++
	// The ES2 quota governs guest I/O-request polling (the TX
	// virtqueue); wire ingress keeps vhost's own handle_rx budget
	// so receive batching is unaffected by the hybrid scheme.
	if h.served >= rxBudget && dev.backlog.Len() > 0 {
		h.requeued = true
		dev.IO.requeue(h)
	}
}
