package workloads

import (
	"slices"
	"testing"
	"unsafe"

	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/vhost"
	"es2/internal/vmm"
)

// rig is a complete single-VM testbed: guest kernel + vhost device +
// link + peer, with the vCPU on core 0 and the vhost worker on core 1.
type rig struct {
	eng  *sim.Engine
	k    *vmm.KVM
	vm   *vmm.VM
	kern *guest.Kernel
	dev  *vhost.Device
	peer *Peer
	ids  FlowIDs
}

func newRig(t *testing.T, usePI bool, vcpus int) *rig {
	t.Helper()
	eng := sim.NewEngine(9)
	s := sched.New(eng, vcpus+1, sched.DefaultParams())
	k := vmm.NewKVM(eng, s, vmm.DefaultCosts())
	k.UsePI = usePI
	cores := make([]int, vcpus)
	for i := range cores {
		cores[i] = i
	}
	vm := k.NewVM("vm", cores)
	kern := guest.NewKernel(vm, guest.DefaultCosts(), 1024)
	kern.StartBurnAll()

	link := netsim.NewLink(eng, 40, 2*sim.Microsecond)
	peer := NewPeer(eng, link.PortB(), 2*sim.Microsecond)
	io := vhost.NewIOThread("io", s, vcpus, vhost.DefaultParams())
	dev, err := vhost.NewDevice("dev", io, kern.Dev.Pairs[0].TX, kern.Dev.Pairs[0].RX, link.PortA(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	link.Attach(dev, peer)
	vm.Start()
	return &rig{eng: eng, k: k, vm: vm, kern: kern, dev: dev, peer: peer}
}

func TestNetperfTCPSendEndToEnd(t *testing.T) {
	r := newRig(t, true, 1)
	flow, sink := NetperfSendTCP(r.kern, r.vm.VCPUs[0], r.peer, r.ids.Next(), 1024, 64)
	r.eng.Run(200 * sim.Millisecond)
	if sink.Segs < 1000 {
		t.Fatalf("peer received %d segments, want >1000", sink.Segs)
	}
	if sink.Bytes != sink.Segs*1024 {
		t.Fatalf("byte accounting wrong: %d bytes for %d segs", sink.Bytes, sink.Segs)
	}
	if flow.InFlight() > flow.Window() {
		t.Fatalf("in-flight %d exceeds window %d", flow.InFlight(), flow.Window())
	}
	if flow.AckedSegs == 0 {
		t.Fatal("ACK clock never ticked")
	}
}

func TestNetperfUDPSendEndToEnd(t *testing.T) {
	r := newRig(t, true, 1)
	_, sink := NetperfSendUDP(r.kern, r.vm.VCPUs[0], r.peer, r.ids.Next(), 256)
	r.eng.Run(100 * sim.Millisecond)
	if sink.Pkts < 5000 {
		t.Fatalf("peer received %d packets, want >5000", sink.Pkts)
	}
}

func TestNetperfTCPRecvEndToEnd(t *testing.T) {
	r := newRig(t, true, 1)
	recv, src := NetperfRecvTCP(r.kern, r.peer, r.ids.Next(), 1024, 64)
	r.eng.Run(200 * sim.Millisecond)
	if recv.Segs < 1000 {
		t.Fatalf("guest received %d segments, want >1000", recv.Segs)
	}
	if src.SentSegs < recv.Segs {
		t.Fatal("peer sent fewer segments than guest received")
	}
	if recv.AcksSent == 0 {
		t.Fatal("guest never ACKed")
	}
}

// gbnUser is one sender built on guest.GoBackN as TestGoBackN drives
// it: its window state, what it has put on the wire since the last
// call, and its ACK input.
type gbnUser struct {
	g    *guest.GoBackN
	sent func() []int64
	ack  func(seq int64)
}

// guestSender is the guest's TCPSender, IW10 toward a cap of 32; the
// test transmits for it whatever its window admits.
func guestSender(r *rig, rto sim.Time) gbnUser {
	r.kern.RetransmitRTO = rto
	f := guest.NewTCPSender(r.kern, r.ids.Next(), 1024, 32)
	return gbnUser{
		g: &f.GoBackN,
		sent: func() (seqs []int64) {
			for f.CanSend() {
				p := f.NextSegment()
				seqs = append(seqs, p.Seq)
				p.Release()
			}
			return seqs
		},
		ack: func(seq int64) {
			f.HandleRX(&netsim.Packet{Kind: guest.KindTCPAck, Flow: f.FlowID, Seq: seq}, r.vm.VCPUs[0])
		},
	}
}

// peerSource is the peer's TCPSource with a fixed window of 16. Its
// segments cross a link of their own to a sink, so only the test ACKs
// them.
func peerSource(r *rig, rto sim.Time) gbnUser {
	var wire []int64
	link := netsim.NewLink(r.eng, 40, 2*sim.Microsecond)
	pe := NewPeer(r.eng, link.PortB(), 2*sim.Microsecond)
	pe.RetransmitRTO = rto
	link.Attach(netsim.EndpointFunc(func(p *netsim.Packet) {
		wire = append(wire, p.Seq)
		p.Release()
	}), pe)
	_, src := NetperfRecvTCP(r.kern, pe, r.ids.Next(), 1024, 16)
	return gbnUser{
		g: &src.GoBackN,
		sent: func() []int64 {
			r.eng.Run(r.eng.Now() + 50*sim.Microsecond) // the peer delay and the wire
			seqs := wire
			wire = nil
			return seqs
		},
		ack: func(seq int64) {
			src.PeerReceive(&netsim.Packet{Kind: guest.KindTCPAck, Flow: src.flowID, Seq: seq})
		},
	}
}

// TestGoBackN drives the go-back-N window through both of its users: a
// timeout rewinds to the last cumulative ACK and restarts from the
// initial window, the timer backs off by doubling up to 8x and resets
// on progress, and a stale ACK changes nothing.
func TestGoBackN(t *testing.T) {
	const rto = sim.Millisecond
	for _, c := range []struct {
		name  string
		iw    int
		start func(*rig, sim.Time) gbnUser
	}{
		{"guest TCPSender", 10, guestSender},
		{"peer TCPSource", 16, peerSource},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, true, 1)
			u := c.start(r, rto)
			g := u.g
			span := func(from int64, n int) []int64 {
				s := make([]int64, n)
				for i := range s {
					s[i] = from + int64(i)
				}
				return s
			}
			// timeout runs to the next retransmission timeout and
			// returns its instant.
			timeout := func() sim.Time {
				t.Helper()
				for n := g.Retransmits; g.Retransmits == n; {
					if !r.eng.Step() {
						t.Fatal("the engine ran dry before a timeout")
					}
				}
				return r.eng.Now()
			}

			if got := u.sent(); !slices.Equal(got, span(0, c.iw)) {
				t.Fatalf("initial window sent %v, want %v", got, span(0, c.iw))
			}
			u.ack(4)
			acked := r.eng.Now()
			u.sent()
			if g.AckedSegs != 4 || g.InFlight() != g.Window() {
				t.Fatalf("after ACK 4: acked %d, %d in flight of window %d", g.AckedSegs, g.InFlight(), g.Window())
			}

			// Half a timeout later, stale ACKs change nothing, the
			// pending timer included.
			r.eng.Run(acked + rto/2)
			before := *g
			u.ack(4)
			u.ack(2)
			if after := *g; after != before {
				t.Fatalf("stale ACK changed the window: %+v, want %+v", after, before)
			}
			if at := timeout(); at != acked+rto {
				t.Fatalf("first timeout at %v, want %v", at, acked+rto)
			}

			// Each timeout goes back to the last cumulative ACK with the
			// initial window, and the timer doubles up to 8x.
			last := r.eng.Now()
			for i, gap := range []sim.Time{0, 2 * rto, 4 * rto, 8 * rto, 8 * rto} {
				if i > 0 {
					if at := timeout(); at-last != gap {
						t.Fatalf("timeout %d came %v after the last, want %v", i+1, at-last, gap)
					}
					last = r.eng.Now()
				}
				if g.Window() != c.iw {
					t.Fatalf("timeout %d: window %d, want the initial %d", i+1, g.Window(), c.iw)
				}
				if got := u.sent(); !slices.Equal(got, span(4, c.iw)) {
					t.Fatalf("timeout %d resent %v, want %v", i+1, got, span(4, c.iw))
				}
			}
			if g.Retransmits != 5 {
				t.Fatalf("Retransmits = %d, want 5", g.Retransmits)
			}

			// Progress resets the backoff: the next timeout is one base
			// RTO after the ACK.
			u.ack(4 + int64(c.iw))
			acked = r.eng.Now()
			u.sent()
			if at := timeout(); at != acked+rto {
				t.Fatalf("timeout after progress at %v, want %v", at, acked+rto)
			}
		})
	}
}

func TestNetperfUDPRecvEndToEnd(t *testing.T) {
	r := newRig(t, true, 1)
	recv, _ := NetperfRecvUDP(r.kern, r.peer, r.ids.Next(), 1024, 100_000)
	r.eng.Run(100 * sim.Millisecond)
	if recv.Pkts < 5000 {
		t.Fatalf("guest received %d packets, want ~10000", recv.Pkts)
	}
}

func TestPingEndToEnd(t *testing.T) {
	r := newRig(t, true, 1)
	p := StartPing(r.kern, r.peer, r.ids.Next(), 5*sim.Millisecond)
	r.eng.Run(200 * sim.Millisecond)
	if p.Hist.Count() < 30 {
		t.Fatalf("only %d replies", p.Hist.Count())
	}
	if p.Outstanding() > 2 {
		t.Fatalf("%d probes unanswered on an idle VM", p.Outstanding())
	}
	// A dedicated, mostly idle vCPU answers in tens of microseconds.
	if mean := p.Hist.Mean(); mean > sim.Millisecond {
		t.Fatalf("mean RTT %v too high for a dedicated vCPU", mean)
	}
}

func TestMemcachedClosedLoop(t *testing.T) {
	r := newRig(t, true, 2)
	srv := StartServer(r.kern, 8*sim.Microsecond)
	m := StartMemaslap(r.peer, &r.ids, 4, 32)
	r.eng.Run(300 * sim.Millisecond)
	if m.Completed < 1000 {
		t.Fatalf("completed %d ops, want >1000", m.Completed)
	}
	if srv.Served < m.Completed {
		t.Fatal("server served fewer than client completed")
	}
	if m.Lat.Count() != m.Completed {
		t.Fatal("latency histogram count mismatch")
	}
	// Closed loop: outstanding never exceeds concurrency.
	if len(m.started) > 32 {
		t.Fatalf("%d outstanding, concurrency 32", len(m.started))
	}
}

func TestMemaslapGetSetMix(t *testing.T) {
	r := newRig(t, true, 1)
	StartServer(r.kern, 8*sim.Microsecond)
	StartMemaslap(r.peer, &r.ids, 2, 8)
	r.eng.Run(200 * sim.Millisecond)
	// The peer's port carries only memaslap's requests, in the order
	// they were issued: every tenth is a 1,130-byte set, the rest are
	// 105-byte gets.
	port := r.peer.Port
	n := port.PacketsSent
	if n < 100 {
		t.Fatalf("%d requests crossed the wire, too few to check the mix", n)
	}
	sets := n / 10
	if want := (n-sets)*105 + sets*1130; port.BytesSent != want {
		t.Fatalf("%d requests carried %d bytes, want %d (%d gets, %d sets)",
			n, port.BytesSent, want, n-sets, sets)
	}
}

func TestApacheBenchEndToEnd(t *testing.T) {
	r := newRig(t, true, 2)
	StartServer(r.kern, 8*sim.Microsecond)
	ab := StartApacheBench(r.peer, &r.ids, 8, 8192)
	r.eng.Run(400 * sim.Millisecond)
	if ab.Completed < 200 {
		t.Fatalf("completed %d requests, want >200", ab.Completed)
	}
	if ab.BytesReceived < ab.Completed*8192 {
		t.Fatalf("bytes %d < completed %d x 8192", ab.BytesReceived, ab.Completed)
	}
	if ab.ConnTime.Count() == 0 {
		t.Fatal("no connection times recorded")
	}
}

func TestHttperfOpenLoop(t *testing.T) {
	r := newRig(t, true, 2)
	StartServer(r.kern, 8*sim.Microsecond)
	h := StartHttperf(r.peer, &r.ids, 2000, 1024)
	r.eng.Run(500 * sim.Millisecond)
	if h.Initiated < 900 {
		t.Fatalf("initiated %d connections, want ~1000", h.Initiated)
	}
	if h.Established < h.Initiated*8/10 {
		t.Fatalf("established %d of %d", h.Established, h.Initiated)
	}
	if h.Responses == 0 {
		t.Fatal("no responses")
	}
}

func TestServerBacklogOverflowTriggersRetransmits(t *testing.T) {
	r := newRig(t, true, 1)
	srv := StartServer(r.kern, 3*sim.Millisecond) // slow accept drain
	h := StartHttperf(r.peer, &r.ids, 3000, 256)
	r.eng.Run(400 * sim.Millisecond)
	if srv.SYNDrops == 0 {
		t.Fatal("expected SYN drops with a 3 ms service cost under 3000 conn/s")
	}
	// Retransmission recovery must still establish some connections.
	if h.Established == 0 {
		t.Fatal("no connections established at all")
	}
	_ = h
}

func TestPeerUnclaimedPackets(t *testing.T) {
	eng := sim.NewEngine(1)
	link := netsim.NewLink(eng, 40, 0)
	pe := NewPeer(eng, link.PortB(), 0)
	pe.Receive(&netsim.Packet{Flow: 999})
	if pe.Unclaimed != 1 {
		t.Fatal("unclaimed packet not counted")
	}
}

func TestFlowIDsUnique(t *testing.T) {
	var ids FlowIDs
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		id := ids.Next()
		if seen[id] {
			t.Fatal("duplicate flow id")
		}
		seen[id] = true
	}
}

// TestRPCClientFlowCount checks AddFlow's preconditions: a client takes
// at most the flow count it was created for, and flow starts must not
// decrease, because the flows' first requests wait on one delay line.
// Flows that were accepted start in order, and the line is dropped once
// the last declared flow has started.
func TestRPCClientFlowCount(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	r := newRig(t, true, 1)
	c := NewRPCClient(r.kern, 2, 128, 1024)
	a := c.AddFlow(r.ids.Next(), 10*sim.Microsecond)
	mustPanic("a start before the previous one", func() { c.AddFlow(r.ids.Next(), 0) })
	b := c.AddFlow(r.ids.Next(), 10*sim.Microsecond)
	mustPanic("a flow past the declared count", func() { c.AddFlow(r.ids.Next(), 20*sim.Microsecond) })
	if fl := c.Flows(); len(fl) != 2 || &fl[0] != a || &fl[1] != b {
		t.Fatalf("Flows() holds %d flows, want the 2 AddFlow returned", len(fl))
	}
	stepUntil(t, r.eng, func() bool { return a.reqID > 0 })
	if b.reqID != 0 {
		t.Fatal("the second flow started before the first")
	}
	if c.starts == nil {
		t.Fatal("the start line was dropped before the last flow started")
	}
	stepUntil(t, r.eng, func() bool { return b.reqID > 0 })
	if c.starts != nil {
		t.Fatal("the start line outlived the last declared flow's start")
	}
	if c.retries != nil {
		t.Fatal("a client without a Timeout holds retry state")
	}
}

// An RPC flow holds only what every flow uses: the request and response
// sizes live on the client, and retry state only in clients with a
// Timeout. A rack holds thousands of flows, each client's in one
// slice, so every word counts once per flow.
func TestRPCFlowSize(t *testing.T) {
	if got := unsafe.Sizeof(RPCFlow{}); got > 80 {
		t.Errorf("RPCFlow is %d bytes, want at most 80", got)
	}
}
