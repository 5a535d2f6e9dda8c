package vhost

import (
	"testing"

	"es2/internal/netsim"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/virtio"
)

// rig wires an IOThread + Device with a capturing wire endpoint. The
// guest side is driven by hand through the virtqueues.
type rig struct {
	eng  *sim.Engine
	s    *sched.Scheduler
	io   *IOThread
	dev  *Device
	wire []*netsim.Packet
}

func newRig(hybrid bool, quota int) *rig {
	eng := sim.NewEngine(1)
	s := sched.New(eng, 1, sched.DefaultParams())
	r := &rig{eng: eng, s: s}
	link := netsim.NewLink(eng, 40, sim.Microsecond)
	link.Attach(
		netsim.EndpointFunc(func(p *netsim.Packet) {}), // device side unused here
		netsim.EndpointFunc(func(p *netsim.Packet) { r.wire = append(r.wire, p) }),
	)
	txq := virtio.New("tx", 256)
	rxq := virtio.New("rx", 256)
	for i := 0; i < 256; i++ {
		rxq.Add(virtio.Desc{})
	}
	r.io = NewIOThread("io", s, 0, DefaultParams())
	dev, err := NewDevice("dev", r.io, txq, rxq, link.PortA(), hybrid, quota)
	if err != nil {
		panic(err)
	}
	r.dev = dev
	return r
}

// guestSend adds a packet to the TX queue and kicks (returning whether
// the kick was actually delivered).
func (r *rig) guestSend(bytes int) bool {
	if !r.dev.TXQ.Add(virtio.Desc{Len: bytes, Payload: &netsim.Packet{Bytes: bytes}}) {
		return false
	}
	return r.dev.TXQ.Kick()
}

func TestTXPathDeliversToWire(t *testing.T) {
	r := newRig(false, 0)
	for i := 0; i < 50; i++ {
		r.guestSend(1000)
	}
	r.eng.Run(10 * sim.Millisecond)
	if len(r.wire) != 50 {
		t.Fatalf("wire got %d packets, want 50", len(r.wire))
	}
	if r.dev.TxPkts != 50 || r.dev.TxBytes != 50_000 {
		t.Fatalf("device stats: %d pkts %d bytes", r.dev.TxPkts, r.dev.TxBytes)
	}
	// All descriptors must be completed back to the driver.
	if got := r.dev.TXQ.UsedLen(); got != 50 {
		t.Fatalf("used ring has %d descs, want 50", got)
	}
}

func TestVanillaSuppressesKicksWhileServicing(t *testing.T) {
	r := newRig(false, 0)
	// First kick wakes the handler; while it is servicing the initial
	// batch, further guest adds see NO_NOTIFY and are coalesced.
	r.guestSend(1000)
	r.dev.TXQ.Add(virtio.Desc{Len: 1000, Payload: &netsim.Packet{Bytes: 1000}})
	r.dev.TXQ.Add(virtio.Desc{Len: 1000, Payload: &netsim.Packet{Bytes: 1000}})
	r.eng.Run(5 * sim.Microsecond) // wake+switch done, mid-service of pkt 1 of 3
	delivered := 0
	for i := 0; i < 20; i++ {
		if r.guestSend(1000) {
			delivered++
		}
	}
	if delivered != 0 {
		t.Fatalf("%d kicks delivered during active service, want 0 (suppressed)", delivered)
	}
	r.eng.Run(10 * sim.Millisecond)
	if len(r.wire) != 23 {
		t.Fatalf("wire got %d packets, want 23", len(r.wire))
	}
	// After draining, notifications are re-enabled.
	if r.dev.TXQ.KickSuppressed() {
		t.Fatal("vanilla handler must re-enable notifications when idle")
	}
}

func TestHybridHoldsPollingAcrossTurns(t *testing.T) {
	r := newRig(true, 4)
	// Saturate: keep the queue non-empty so quota requeues happen.
	feed := 0
	var pump func()
	pump = func() {
		if feed < 200 {
			r.dev.TXQ.Add(virtio.Desc{Len: 500, Payload: &netsim.Packet{Bytes: 500}})
			if feed == 0 {
				r.dev.TXQ.Kick()
			}
			feed++
			r.eng.After(sim.Microsecond, pump)
		}
	}
	r.eng.After(0, pump)
	r.eng.Run(150 * sim.Microsecond)
	// Mid-load: polling mode engaged (notifications held disabled).
	if !r.dev.TXPolling() {
		t.Fatal("hybrid handler should hold polling mode under load")
	}
	r.eng.Run(10 * sim.Millisecond)
	if len(r.wire) != 200 {
		t.Fatalf("wire got %d packets, want 200", len(r.wire))
	}
	// Idle again: back to notification mode (Algorithm 1 line 19).
	if r.dev.TXPolling() {
		t.Fatal("handler should return to notification mode when the queue drains")
	}
	if r.dev.TXQ.Kicks != 1 {
		t.Fatalf("delivered kicks = %d, want 1 (single wake for the whole burst)", r.dev.TXQ.Kicks)
	}
}

func TestRXPathFillsGuestRing(t *testing.T) {
	r := newRig(false, 0)
	for i := 0; i < 30; i++ {
		r.dev.Receive(&netsim.Packet{Bytes: 800, Seq: int64(i)})
	}
	r.eng.Run(10 * sim.Millisecond)
	if r.dev.RxPkts != 30 {
		t.Fatalf("RxPkts = %d, want 30", r.dev.RxPkts)
	}
	if got := r.dev.RXQ.UsedLen(); got != 30 {
		t.Fatalf("guest used ring has %d entries, want 30", got)
	}
	if r.dev.Backlog() != 0 {
		t.Fatal("backlog should drain")
	}
}

func TestRXBatchSignaling(t *testing.T) {
	r := newRig(false, 0)
	signals := 0
	r.dev.RXQ.OnInterrupt(func() { signals++ })
	for i := 0; i < 30; i++ {
		r.dev.Receive(&netsim.Packet{Bytes: 800})
	}
	r.eng.Run(10 * sim.Millisecond)
	if signals == 0 {
		t.Fatal("no interrupt raised")
	}
	if signals > 5 {
		t.Fatalf("%d signals for one 30-packet burst, want batched (<=5)", signals)
	}
}

func TestRXRingStarvation(t *testing.T) {
	r := newRig(false, 0)
	// Drain the guest's posted buffers (complete + reclaim so the ring
	// is empty but free).
	for {
		d, ok := r.dev.RXQ.Pop()
		if !ok {
			break
		}
		r.dev.RXQ.PushUsed(d)
	}
	r.dev.RXQ.CollectUsed(0)
	r.dev.Receive(&netsim.Packet{Bytes: 800})
	r.eng.Run(5 * sim.Millisecond)
	if r.dev.RxRingStarved == 0 {
		t.Fatal("starvation not detected")
	}
	// The handler must have enabled refill notifications.
	if r.dev.RXQ.KickSuppressed() {
		t.Fatal("starved handler must enable guest refill kicks")
	}
	// Guest reposts buffers and kicks: delivery resumes.
	for i := 0; i < 8; i++ {
		r.dev.RXQ.Add(virtio.Desc{})
	}
	r.dev.RXQ.Kick()
	r.eng.Run(10 * sim.Millisecond)
	if r.dev.RxPkts != 1 {
		t.Fatalf("RxPkts = %d, want 1 after refill", r.dev.RxPkts)
	}
}

func TestBacklogCapDrops(t *testing.T) {
	r := newRig(false, 0)
	// Stop the io thread from running by flooding within one instant.
	n := r.dev.Params.BacklogCap + 50
	for i := 0; i < n; i++ {
		r.dev.Receive(&netsim.Packet{Bytes: 100})
	}
	if r.dev.BacklogDrops != 50 {
		t.Fatalf("BacklogDrops = %d, want 50", r.dev.BacklogDrops)
	}
}

func TestHybridRequiresQuota(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("hybrid without quota should panic")
		}
	}()
	newRig(true, 0)
}

func TestIOThreadSleepsWhenIdle(t *testing.T) {
	r := newRig(false, 0)
	r.guestSend(100)
	r.eng.Run(10 * sim.Millisecond)
	if r.io.Thread.State() != sched.Sleeping {
		t.Fatalf("idle IOThread state = %v, want sleeping", r.io.Thread.State())
	}
	busy := r.io.Thread.SumExec()
	r.eng.Run(20 * sim.Millisecond)
	if r.io.Thread.SumExec() != busy {
		t.Fatal("idle IOThread must not consume CPU")
	}
}

func TestDeviceResetStats(t *testing.T) {
	r := newRig(false, 0)
	r.guestSend(100)
	r.dev.Receive(&netsim.Packet{Bytes: 100})
	r.eng.Run(10 * sim.Millisecond)
	r.dev.ResetStats()
	if r.dev.TxPkts != 0 || r.dev.RxPkts != 0 || r.dev.BacklogDrops != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestParamsCostHelpers(t *testing.T) {
	p := DefaultParams()
	if p.txCost(1500) <= p.txCost(64) {
		t.Fatal("tx cost must grow with size")
	}
	if p.rxCost(1500) <= p.rxCost(64) {
		t.Fatal("rx cost must grow with size")
	}
}

func TestInterruptModeration(t *testing.T) {
	r := newRig(false, 0)
	r.dev.CoalesceCount = 8
	r.dev.CoalesceTimer = 500 * sim.Microsecond
	signals := 0
	r.dev.RXQ.OnInterrupt(func() { signals++ })
	// Deliver 4 packets: below the count threshold, so only the timer
	// may signal.
	for i := 0; i < 4; i++ {
		r.dev.Receive(&netsim.Packet{Bytes: 500})
	}
	r.eng.Run(200 * sim.Microsecond)
	if signals != 0 {
		t.Fatalf("signaled %d times before threshold/timer", signals)
	}
	r.eng.Run(2 * sim.Millisecond)
	if signals != 1 {
		t.Fatalf("timer flush should signal exactly once, got %d", signals)
	}
	if r.dev.CoalesceFlushes != 1 {
		t.Fatalf("CoalesceFlushes = %d, want 1", r.dev.CoalesceFlushes)
	}
	// A fast burst of >= count packets signals without the timer.
	for i := 0; i < 8; i++ {
		r.dev.Receive(&netsim.Packet{Bytes: 500})
	}
	r.eng.Run(3 * sim.Millisecond)
	if signals != 2 {
		t.Fatalf("count-triggered signal missing: got %d", signals)
	}
	if r.dev.CoalesceFlushes != 1 {
		t.Fatal("count-triggered signal must not count as a timer flush")
	}
}

func TestModerationDisabledByDefault(t *testing.T) {
	r := newRig(false, 0)
	signals := 0
	r.dev.RXQ.OnInterrupt(func() { signals++ })
	r.dev.Receive(&netsim.Packet{Bytes: 500})
	r.eng.Run(sim.Millisecond)
	if signals != 1 {
		t.Fatalf("unmoderated single packet should signal once, got %d", signals)
	}
}

// TestSecondDeviceOnClaimedQueuesRefused guards the avail/used
// accounting: attaching a second back-end to a queue pair that already
// has one must fail cleanly (previously the corruption surfaced later
// as a "PushUsed without matching Pop" panic).
func TestSecondDeviceOnClaimedQueuesRefused(t *testing.T) {
	r := newRig(false, 0)
	io2 := NewIOThread("io2", r.s, 0, DefaultParams())
	link := netsim.NewLink(r.eng, 40, sim.Microsecond)
	link.Attach(netsim.EndpointFunc(func(*netsim.Packet) {}), netsim.EndpointFunc(func(*netsim.Packet) {}))
	_, err := NewDevice("dev2", io2, r.dev.TXQ, r.dev.RXQ, link.PortA(), false, 0)
	if err == nil {
		t.Fatal("second device on claimed queues must be refused")
	}
}

// TestRePollRecoversLostKick drives the re-poll mechanism directly: a
// kick swallowed by the fault hook leaves descriptors stranded until
// StartRePoll notices the frozen queue and re-enqueues the handler.
func TestRePollRecoversLostKick(t *testing.T) {
	r := newRig(false, 0)
	r.dev.TXQ.DropKick = func() bool { return true } // every kick lost
	r.dev.StartRePoll(10 * sim.Microsecond)
	r.guestSend(1000)
	r.eng.Run(sim.Millisecond)
	if len(r.wire) != 1 {
		t.Fatalf("re-poll did not recover the stranded descriptor: wire=%d", len(r.wire))
	}
	if r.dev.RePolls == 0 {
		t.Fatal("RePolls counter not incremented")
	}
}

// TestTXTurnAllocs pins one TX handler turn, a kick for four pre-built
// packets copied onto the wire and completed, at zero allocations: the
// handler's send effect is bound once.
func TestTXTurnAllocs(t *testing.T) {
	r := newRig(false, 0)
	var pkts [4]netsim.Packet
	got := testing.AllocsPerRun(500, func() {
		for i := range pkts {
			r.dev.TXQ.Add(virtio.Desc{Len: 1024, Payload: &pkts[i]})
		}
		r.dev.TXQ.Kick()
		r.eng.RunAll()
		r.dev.TXQ.CollectUsed(0)
		r.wire = r.wire[:0]
	})
	if got != 0 {
		t.Errorf("TX turn: %v allocs/op, want 0", got)
	}
	if r.dev.TxPkts != 4*501 || r.io.Turns != 501 {
		t.Fatalf("sent %d packets in %d turns, want %d in 501", r.dev.TxPkts, r.io.Turns, 4*501)
	}
}

// A handler waits in the work queue at most once: a second kick while
// it is queued folds into the same turn. Each injected stall is a
// handler of its own, so two stalls injected back to back both run.
func TestQueuedHandlerTakesOneTurn(t *testing.T) {
	const stall = 100 * sim.Microsecond
	r := newRig(false, 0)
	r.io.InjectStall(stall) // the worker is busy when the kicks land
	r.dev.TXQ.Add(virtio.Desc{Len: 1000, Payload: &netsim.Packet{Bytes: 1000}})
	r.dev.TXQ.Kick()
	r.dev.TXQ.Kick()
	if !r.dev.tx.queued || r.io.work.Len() != 1 {
		t.Fatalf("after two kicks: queued %t, %d handlers waiting, want true and 1", r.dev.tx.queued, r.io.work.Len())
	}
	r.eng.RunAll()
	if r.dev.TXQ.Kicks != 2 || r.io.Turns != 2 || len(r.wire) != 1 {
		t.Fatalf("a stall and %d kicks gave %d turns and %d packets, want 2, 2 and 1",
			r.dev.TXQ.Kicks, r.io.Turns, len(r.wire))
	}
	if r.dev.tx.queued {
		t.Fatal("queued bit still set after the turn")
	}

	busy := r.io.Thread.SumExec()
	r.io.InjectStall(stall)
	r.io.InjectStall(stall)
	r.eng.RunAll()
	if r.io.Stalls != 3 || r.io.Turns != 4 {
		t.Fatalf("%d stalls injected and %d turns in all, want 3 and 4", r.io.Stalls, r.io.Turns)
	}
	if ran := r.io.Thread.SumExec() - busy; ran < 2*stall {
		t.Fatalf("worker ran %v for two %v stalls", ran, stall)
	}
}
