package guest

import (
	"testing"
	"testing/quick"

	"es2/internal/causal"
	"es2/internal/netsim"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/vmm"
)

type rig struct {
	eng  *sim.Engine
	s    *sched.Scheduler
	k    *vmm.KVM
	vm   *vmm.VM
	kern *Kernel
}

func newRig(usePI bool) *rig {
	eng := sim.NewEngine(1)
	s := sched.New(eng, 2, sched.DefaultParams())
	cost := vmm.DefaultCosts()
	cost.TimerTickPeriod = 0
	cost.OtherExitPeriod = 0
	k := vmm.NewKVM(eng, s, cost)
	k.UsePI = usePI
	vm := k.NewVM("t", []int{0})
	kern := NewKernel(vm, DefaultCosts(), 256)
	kern.StartBurnAll()
	return &rig{eng: eng, s: s, k: k, vm: vm, kern: kern}
}

// pushRX emulates the back-end delivering a packet into the RX ring and
// signaling the queue.
func (r *rig) pushRX(p *netsim.Packet) bool {
	d, ok := r.kern.Dev.Pairs[0].RX.Pop()
	if !ok {
		return false
	}
	d.Len = p.Bytes
	d.Payload = p
	r.kern.Dev.Pairs[0].RX.PushUsed(d)
	r.kern.Dev.Pairs[0].RX.Signal()
	return true
}

func TestTCPSenderWindow(t *testing.T) {
	r := newRig(true)
	f := NewTCPSender(r.kern, 7, 1024, 64)
	if f.Window() != 10 {
		t.Fatalf("initial window = %d, want 10 (IW10)", f.Window())
	}
	for i := 0; i < 10; i++ {
		if !f.CanSend() {
			t.Fatalf("CanSend false at %d in flight", i)
		}
		f.NextSegment()
	}
	if f.CanSend() {
		t.Fatal("CanSend true with full window")
	}
	if f.InFlight() != 10 {
		t.Fatalf("InFlight = %d", f.InFlight())
	}
	// Cumulative ACK of 4 segments reopens the window and grows cwnd.
	f.HandleRX(&netsim.Packet{Kind: KindTCPAck, Flow: 7, Seq: 4}, r.vm.VCPUs[0])
	if f.InFlight() != 6 {
		t.Fatalf("InFlight after ack = %d, want 6", f.InFlight())
	}
	if f.Window() != 14 {
		t.Fatalf("window after ack = %d, want 14 (slow start)", f.Window())
	}
	// Duplicate/old ACK is ignored.
	f.HandleRX(&netsim.Packet{Kind: KindTCPAck, Flow: 7, Seq: 4}, r.vm.VCPUs[0])
	if f.InFlight() != 6 || f.AckedSegs != 4 {
		t.Fatal("duplicate ACK must not change state")
	}
}

func TestTCPSenderWindowCap(t *testing.T) {
	r := newRig(true)
	f := NewTCPSender(r.kern, 7, 1024, 32)
	var sent int64
	for i := 0; i < 100; i++ {
		for f.CanSend() {
			f.NextSegment()
			sent++
		}
		f.HandleRX(&netsim.Packet{Kind: KindTCPAck, Flow: 7, Seq: sent}, r.vm.VCPUs[0])
	}
	if f.Window() != 32 {
		t.Fatalf("window = %d, want cap 32", f.Window())
	}
}

func TestTCPSenderWaitWindow(t *testing.T) {
	r := newRig(true)
	f := NewTCPSender(r.kern, 7, 1024, 16)
	for f.CanSend() {
		f.NextSegment()
	}
	woken := false
	f.WaitWindow(func() { woken = true })
	f.HandleRX(&netsim.Packet{Kind: KindTCPAck, Flow: 7, Seq: 2}, r.vm.VCPUs[0])
	if !woken {
		t.Fatal("WaitWindow callback not invoked on window open")
	}
}

func TestTCPReceiverStretchAck(t *testing.T) {
	r := newRig(true)
	f := NewTCPReceiver(r.kern, 9)
	v := r.vm.VCPUs[0]
	// One NAPI batch of 10 segments → exactly one cumulative ACK.
	for i := 0; i < 10; i++ {
		f.HandleRX(&netsim.Packet{Kind: KindTCPData, Flow: 9, Seq: int64(i), Bytes: 1024}, v)
	}
	f.BatchEnd(v)
	// Goodput is counted when the process-context copy completes.
	r.eng.Run(10 * sim.Millisecond)
	if f.Segs != 10 || f.BytesReceived != 10*1024 {
		t.Fatalf("segs=%d bytes=%d", f.Segs, f.BytesReceived)
	}
	if f.AcksSent != 1 {
		t.Fatalf("AcksSent = %d, want 1 (stretch ACK per batch)", f.AcksSent)
	}
	d, ok := r.kern.Dev.Pairs[0].TX.Pop()
	if !ok {
		t.Fatal("ACK not on TX ring")
	}
	ack := d.Payload
	if ack.Kind != KindTCPAck || ack.Seq != 10 {
		t.Fatalf("ack = %+v, want cumulative seq 10", ack)
	}
	// An empty batch must not ACK.
	f.BatchEnd(v)
	if f.AcksSent != 1 {
		t.Fatal("empty batch generated an ACK")
	}
}

func TestJitterCostBounded(t *testing.T) {
	r := newRig(true)
	base := 1000 * sim.Nanosecond
	for i := 0; i < 1000; i++ {
		c := r.kern.JitterCost(base)
		if c < 750 || c > 1250 {
			t.Fatalf("JitterCost out of ±25%% band: %v", c)
		}
	}
}

func TestUDPFlows(t *testing.T) {
	r := newRig(true)
	s := NewUDPSender(r.kern, 3, 256)
	p := s.NextPacket()
	if p.Bytes != 256 || p.Kind != KindUDP || p.Seq != 0 {
		t.Fatalf("packet = %+v", p)
	}
	if s.NextPacket().Seq != 1 {
		t.Fatal("seq must increment")
	}
	recv := NewUDPReceiver(r.kern, 4)
	recv.HandleRX(&netsim.Packet{Kind: KindUDP, Flow: 4, Bytes: 512}, r.vm.VCPUs[0])
	if recv.Pkts != 1 || recv.BytesReceived != 512 {
		t.Fatal("receiver counts wrong")
	}
}

func TestPingResponder(t *testing.T) {
	r := newRig(true)
	f := NewPingResponder(r.kern, 5)
	chain := &causal.Chain{}
	echo := r.kern.Pool.Get()
	echo.Kind, echo.Flow, echo.Seq, echo.Bytes, echo.Chain = KindEcho, 5, 42, 64, chain
	f.HandleRX(echo, r.vm.VCPUs[0])
	if f.Replies != 1 {
		t.Fatal("no reply generated")
	}
	if !echo.Released() {
		t.Fatal("the responder must release the echo request it consumed")
	}
	d, ok := r.kern.Dev.Pairs[0].TX.Pop()
	if !ok {
		t.Fatal("reply not on TX ring")
	}
	reply := d.Payload
	if reply.Kind != KindEchoReply || reply.Seq != 42 || reply.Bytes != 64 || reply.Chain != chain {
		t.Fatalf("reply = %+v, want the echo's Seq, size and causal chain", reply)
	}
}

func TestTransmitKickExit(t *testing.T) {
	r := newRig(true)
	v := r.vm.VCPUs[0]
	done := false
	v.EnqueueTask(vmm.NewTask("send", vmm.PrioTask, sim.Microsecond, func() {
		r.kern.Dev.Transmit(v, &netsim.Packet{Bytes: 100, Kind: KindUDP})
		done = true
	}))
	r.eng.Run(sim.Millisecond)
	if !done {
		t.Fatal("send task did not run")
	}
	if got := r.vm.Exits.Count(int(vmm.ExitIOInstruction)); got != 1 {
		t.Fatalf("IOInstruction exits = %d, want 1 (notification-mode kick)", got)
	}
	if r.kern.Dev.Pairs[0].TX.Kicks != 1 {
		t.Fatalf("delivered kicks = %d, want 1", r.kern.Dev.Pairs[0].TX.Kicks)
	}
}

func TestTransmitSuppressedKickNoExit(t *testing.T) {
	r := newRig(true)
	v := r.vm.VCPUs[0]
	r.kern.Dev.Pairs[0].TX.SetNoNotify(true) // back-end is polling
	v.EnqueueTask(vmm.NewTask("send", vmm.PrioTask, sim.Microsecond, func() {
		r.kern.Dev.Transmit(v, &netsim.Packet{Bytes: 100, Kind: KindUDP})
	}))
	r.eng.Run(sim.Millisecond)
	if got := r.vm.Exits.Count(int(vmm.ExitIOInstruction)); got != 0 {
		t.Fatalf("IOInstruction exits = %d, want 0 (suppressed)", got)
	}
	if r.kern.Dev.Pairs[0].TX.SuppressedKicks != 1 {
		t.Fatal("suppressed kick not counted")
	}
}

func TestTransmitRingFull(t *testing.T) {
	r := newRig(true)
	v := r.vm.VCPUs[0]
	dev := r.kern.Dev
	filled := 0
	for dev.Transmit(v, &netsim.Packet{Bytes: 1}) {
		filled++
	}
	if filled != 256 {
		t.Fatalf("ring accepted %d packets, want 256", filled)
	}
	if dev.Pairs[0].TX.InterruptSuppressed() {
		t.Fatal("ring-full must enable the TX completion interrupt")
	}
	// Back-end completes everything and signals.
	woken := false
	dev.Pairs[0].WaitTX(func() { woken = true })
	for {
		d, ok := dev.Pairs[0].TX.Pop()
		if !ok {
			break
		}
		dev.Pairs[0].TX.PushUsed(d)
	}
	dev.Pairs[0].TX.Signal()
	r.eng.Run(10 * sim.Millisecond)
	if !woken {
		t.Fatal("TX waiter not woken by completion interrupt")
	}
	if !dev.Transmit(v, &netsim.Packet{Bytes: 1}) {
		t.Fatal("Transmit should succeed after reclamation")
	}
}

func TestTransmitOrDropCountsDrops(t *testing.T) {
	r := newRig(true)
	v := r.vm.VCPUs[0]
	for r.kern.Dev.Transmit(v, &netsim.Packet{Bytes: 1}) {
	}
	if !r.kern.Dev.TransmitOrDrop(v, &netsim.Packet{Bytes: 1}) && r.kern.Dev.LocalDrops != 1 {
		t.Fatal("drop not counted")
	}
	if r.kern.Dev.LocalDrops != 1 {
		t.Fatalf("LocalDrops = %d, want 1", r.kern.Dev.LocalDrops)
	}
}

// A datagram the full TX ring refuses has no other holder, so
// TransmitOrDrop releases it: the sender's next Pool.Get reuses it
// instead of allocating.
func TestTransmitOrDropReleasesRefused(t *testing.T) {
	r := newRig(true)
	v := r.vm.VCPUs[0]
	f := NewUDPSender(r.kern, 9, 256)
	for r.kern.Dev.Transmit(v, f.NextPacket()) {
	}
	// The loop's last datagram was refused by Transmit itself, which
	// releases nothing.
	p := f.NextPacket()
	if r.kern.Dev.TransmitOrDrop(v, p) {
		t.Fatal("TransmitOrDrop succeeded on a full ring")
	}
	if !p.Released() {
		t.Fatal("the refused datagram was not released")
	}
	if q := f.NextPacket(); q != p {
		t.Fatalf("next datagram %p, want the refused %p back from the kernel's pool", q, p)
	}
}

func TestNAPICycle(t *testing.T) {
	r := newRig(true)
	recv := NewUDPReceiver(r.kern, 4)
	// Deliver 100 packets in one burst.
	for i := 0; i < 100; i++ {
		if !r.pushRX(&netsim.Packet{Kind: KindUDP, Flow: 4, Bytes: 256, Seq: int64(i)}) {
			t.Fatalf("RX ring starved at %d", i)
		}
	}
	r.eng.Run(50 * sim.Millisecond)
	if recv.Pkts != 100 {
		t.Fatalf("received %d packets, want 100", recv.Pkts)
	}
	napi := r.kern.Dev.Pairs[0].NAPI()
	if napi.Scheduled() {
		t.Fatal("NAPI should be idle after draining")
	}
	// 100 packets at weight 64 needs at least 2 poll rounds.
	if napi.Rounds < 2 {
		t.Fatalf("poll rounds = %d, want >= 2", napi.Rounds)
	}
	if r.kern.Dev.Pairs[0].RX.InterruptSuppressed() {
		t.Fatal("RX interrupts must be re-enabled after the cycle")
	}
	// Ring must be refilled.
	if r.kern.Dev.Pairs[0].RX.AvailLen() != 256 {
		t.Fatalf("RX ring refilled to %d, want 256", r.kern.Dev.Pairs[0].RX.AvailLen())
	}
	// One burst, NAPI masked: at most two device interrupts (one may
	// slip in between the wake-up delivery and the ISR masking).
	if got := r.vm.DevIRQDelivered.Value(); got > 2 {
		t.Fatalf("device IRQs = %d, want <= 2 (NAPI masking)", got)
	}
}

func TestNAPIMasksDuringPoll(t *testing.T) {
	r := newRig(true)
	NewUDPReceiver(r.kern, 4)
	r.pushRX(&netsim.Packet{Kind: KindUDP, Flow: 4, Bytes: 256})
	// Run just past the ISR (~1.75us: PI notify + IRQ entry + handler)
	// but before the poll cycle finishes (~3.4us).
	r.eng.Run(2 * sim.Microsecond)
	if !r.kern.Dev.Pairs[0].RX.InterruptSuppressed() {
		t.Fatal("RX interrupts should be masked while NAPI is scheduled")
	}
	r.eng.Run(50 * sim.Millisecond)
	if r.kern.Dev.Pairs[0].RX.InterruptSuppressed() {
		t.Fatal("RX interrupts should be unmasked when idle")
	}
}

func TestDefaultHandlerDispatch(t *testing.T) {
	r := newRig(true)
	got := 0
	r.kern.SetDefaultHandler(handlerFunc{
		cost: func(p *netsim.Packet) sim.Time { return sim.Microsecond },
		rx:   func(p *netsim.Packet, v *vmm.VCPU) { got++ },
	})
	r.pushRX(&netsim.Packet{Kind: KindSYN, Flow: 999, Bytes: 66})
	r.eng.Run(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("default handler ran %d times, want 1", got)
	}
}

type handlerFunc struct {
	cost func(p *netsim.Packet) sim.Time
	rx   func(p *netsim.Packet, v *vmm.VCPU)
}

func (h handlerFunc) RXCost(p *netsim.Packet) sim.Time       { return h.cost(p) }
func (h handlerFunc) HandleRX(p *netsim.Packet, v *vmm.VCPU) { h.rx(p, v) }

func TestUnregisteredFlowDropped(t *testing.T) {
	r := newRig(true)
	r.pushRX(&netsim.Packet{Kind: KindUDP, Flow: 12345, Bytes: 256})
	r.eng.Run(10 * sim.Millisecond)
	if r.kern.RxDropsNoFlow != 1 {
		t.Fatalf("RxDropsNoFlow = %d, want 1", r.kern.RxDropsNoFlow)
	}
}

func TestCostsHelpers(t *testing.T) {
	c := DefaultCosts()
	if c.TXCost(1000, true) <= c.TXCost(1000, false) {
		t.Fatal("TCP path must cost more than UDP")
	}
	if c.TXCost(1500, false) <= c.TXCost(64, false) {
		t.Fatal("cost must grow with size")
	}
	if c.RXCost(1500) <= c.RXCost(64) {
		t.Fatal("RX cost must grow with size")
	}
}

func TestMultiqueuePairs(t *testing.T) {
	eng := sim.NewEngine(1)
	s := sched.New(eng, 4, sched.DefaultParams())
	cost := vmm.DefaultCosts()
	cost.TimerTickPeriod = 0
	cost.OtherExitPeriod = 0
	k := vmm.NewKVM(eng, s, cost)
	k.UsePI = true
	vm := k.NewVM("mq", []int{0, 1, 2, 3})
	kern := NewKernelQueues(vm, DefaultCosts(), 256, 4)

	if len(kern.Dev.Pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(kern.Dev.Pairs))
	}
	// Queue i is affine to vCPU i; vectors are distinct.
	seen := map[int]bool{}
	for i, p := range kern.Dev.Pairs {
		if p.Affinity != i {
			t.Fatalf("pair %d affinity = %d", i, p.Affinity)
		}
		for _, vec := range []int{int(p.RXVector), int(p.TXVector)} {
			if seen[vec] {
				t.Fatalf("vector %#x reused", vec)
			}
			seen[vec] = true
		}
	}
	// Flow hashing is stable and covers all pairs.
	covered := map[int]bool{}
	for f := 0; f < 16; f++ {
		p := kern.Dev.PairFor(f)
		if p != kern.Dev.PairFor(f) {
			t.Fatal("PairFor not stable")
		}
		covered[p.Index] = true
	}
	if len(covered) != 4 {
		t.Fatalf("flows covered %d pairs, want 4", len(covered))
	}
}

func TestMultiqueueTransmitRouting(t *testing.T) {
	eng := sim.NewEngine(1)
	s := sched.New(eng, 2, sched.DefaultParams())
	cost := vmm.DefaultCosts()
	cost.TimerTickPeriod = 0
	cost.OtherExitPeriod = 0
	k := vmm.NewKVM(eng, s, cost)
	k.UsePI = true
	vm := k.NewVM("mq", []int{0, 1})
	kern := NewKernelQueues(vm, DefaultCosts(), 64, 2)
	v := vm.VCPUs[0]

	kern.Dev.Transmit(v, &netsim.Packet{Bytes: 100, Flow: 0})
	kern.Dev.Transmit(v, &netsim.Packet{Bytes: 100, Flow: 1})
	kern.Dev.Transmit(v, &netsim.Packet{Bytes: 100, Flow: 2})
	if got := kern.Dev.Pairs[0].TX.AvailLen(); got != 2 {
		t.Fatalf("pair0 avail = %d, want 2 (flows 0 and 2)", got)
	}
	if got := kern.Dev.Pairs[1].TX.AvailLen(); got != 1 {
		t.Fatalf("pair1 avail = %d, want 1 (flow 1)", got)
	}
}

// Property: the TCP sender's window invariants hold under any
// interleaving of sends and (possibly duplicate, possibly stale)
// cumulative ACKs: in-flight stays within [0, Window] and the window
// never exceeds its cap.
func TestTCPSenderWindowProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		r := newRig(true)
		fl := NewTCPSender(r.kern, 7, 512, 48)
		v := r.vm.VCPUs[0]
		var highestAck int64
		for _, op := range ops {
			if op%2 == 0 {
				if fl.CanSend() {
					fl.NextSegment()
				}
			} else {
				// ACK anywhere up to what has been sent, possibly
				// replaying an old number.
				ack := highestAck + int64(op%8)
				sent := int64(fl.SentSegs)
				if ack > sent {
					ack = sent
				}
				if ack > highestAck {
					highestAck = ack
				}
				fl.HandleRX(&netsim.Packet{Kind: KindTCPAck, Flow: 7, Seq: ack}, v)
			}
			if fl.InFlight() < 0 || fl.InFlight() > fl.Window() {
				return false
			}
			if fl.Window() > 48 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNAPIRoundAllocs pins one NAPI receive cycle, from the RX
// interrupt through the poll round to the protocol handler, at zero
// allocations: NAPI binds its callbacks once and reuses its batch.
func TestNAPIRoundAllocs(t *testing.T) {
	r := newRig(true)
	recv := NewUDPReceiver(r.kern, 4)
	napi := r.kern.Dev.Pairs[0].NAPI()
	pkt := &netsim.Packet{Kind: KindUDP, Flow: 4, Bytes: 256}
	got := testing.AllocsPerRun(500, func() {
		r.pushRX(pkt)
		// The burners never let the queue drain: bound the steps.
		for i, target := 0, recv.Pkts+1; i < 1000 && (recv.Pkts < target || napi.Scheduled()); i++ {
			r.eng.Step()
		}
	})
	if got != 0 {
		t.Errorf("NAPI round: %v allocs/op, want 0", got)
	}
	if recv.Pkts != 501 || napi.Rounds < 501 {
		t.Fatalf("received %d packets in %d rounds, want 501", recv.Pkts, napi.Rounds)
	}
}

// batchCounter counts its packets and the batch ends NAPI reports.
type batchCounter struct{ pkts, ends int }

func (b *batchCounter) RXCost(*netsim.Packet) sim.Time     { return sim.Microsecond }
func (b *batchCounter) HandleRX(*netsim.Packet, *vmm.VCPU) { b.pkts++ }
func (b *batchCounter) BatchEnd(*vmm.VCPU)                 { b.ends++ }

// TestNAPIBatchEndPerBatch checks that BatchEnd runs once per batch,
// only for the flows that batch carried, although NAPI reuses its
// batch slices from round to round.
func TestNAPIBatchEndPerBatch(t *testing.T) {
	r := newRig(true)
	a, b := &batchCounter{}, &batchCounter{}
	r.kern.RegisterFlow(1, a)
	r.kern.RegisterFlow(2, b)
	for _, flows := range [][]int{{1, 1, 2}, {2, 2}, {1}} {
		for _, f := range flows {
			r.pushRX(&netsim.Packet{Kind: KindUDP, Flow: f, Bytes: 256})
		}
		r.eng.Run(r.eng.Now() + sim.Millisecond)
	}
	if a.pkts != 3 || a.ends != 2 || b.pkts != 3 || b.ends != 2 {
		t.Fatalf("flow 1: %d packets, %d batch ends; flow 2: %d, %d; want 3, 2 each",
			a.pkts, a.ends, b.pkts, b.ends)
	}
}
