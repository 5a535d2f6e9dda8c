package fabric

import (
	"testing"

	"es2/internal/netsim"
	"es2/internal/sim"
)

// sink records delivered packets with their arrival times.
type sink struct {
	eng  *sim.Engine
	pkts []*netsim.Packet
	at   []sim.Time
}

func (s *sink) Receive(p *netsim.Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.eng.Now())
}

// crossbar routes flow f to port f%N — enough for the tests here.
func crossbar(n int) Router {
	return func(src *Port, p *netsim.Packet) (int, bool) {
		return p.Flow % n, true
	}
}

func newTestSwitch(t *testing.T, params Params, nPorts int) (*sim.Engine, *Switch, []*sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	sw := New(eng, params)
	sinks := make([]*sink, nPorts)
	for i := 0; i < nPorts; i++ {
		sinks[i] = &sink{eng: eng}
		sw.AddPort("h", sinks[i])
	}
	sw.SetRouter(crossbar(nPorts))
	return eng, sw, sinks
}

func TestForwardAndDelay(t *testing.T) {
	p := DefaultParams()
	p.Delay = 10 * sim.Microsecond
	eng, sw, sinks := newTestSwitch(t, p, 2)

	sw.Port(0).Send(&netsim.Packet{Bytes: 1500, Flow: 1})
	eng.Run(sim.Second)

	if len(sinks[1].pkts) != 1 || len(sinks[0].pkts) != 0 {
		t.Fatalf("want 1 packet at port 1, got %d/%d", len(sinks[0].pkts), len(sinks[1].pkts))
	}
	// 40Gbps = 5 bytes/ns: 1500B serializes in 300ns, twice (ingress +
	// egress), plus the 10µs forwarding delay.
	want := sim.Time(300+300) + p.Delay
	if got := sinks[1].at[0]; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", sw.Forwarded)
	}
}

// Two senders targeting the same egress port must serialize on its
// wire: the second frame's delivery is pushed behind the first.
func TestEgressContention(t *testing.T) {
	p := DefaultParams()
	p.Delay = 0
	eng, sw, sinks := newTestSwitch(t, p, 3)

	sw.Port(0).Send(&netsim.Packet{Bytes: 1500, Flow: 2, Seq: 0})
	sw.Port(1).Send(&netsim.Packet{Bytes: 1500, Flow: 2, Seq: 1})
	eng.Run(sim.Second)

	if len(sinks[2].pkts) != 2 {
		t.Fatalf("want 2 packets, got %d", len(sinks[2].pkts))
	}
	// FIFO in event order: the port-0 frame was sent first.
	if sinks[2].pkts[0].Seq != 0 || sinks[2].pkts[1].Seq != 1 {
		t.Fatalf("out-of-order delivery: %d then %d", sinks[2].pkts[0].Seq, sinks[2].pkts[1].Seq)
	}
	if d := sinks[2].at[1] - sinks[2].at[0]; d != 300 {
		t.Fatalf("egress spacing %v, want 300ns (one 1500B slot at 40G)", d)
	}
}

// A finite uplink serializes frames that would not contend on any
// port, modeling an oversubscribed backplane.
func TestUplinkContention(t *testing.T) {
	p := DefaultParams()
	p.Delay = 0
	p.UplinkGbps = 40
	eng, sw, sinks := newTestSwitch(t, p, 4)

	// Disjoint ingress (0,1) and egress (2,3) ports: only the uplink is
	// shared.
	sw.Port(0).Send(&netsim.Packet{Bytes: 1500, Flow: 2})
	sw.Port(1).Send(&netsim.Packet{Bytes: 1500, Flow: 3})
	eng.Run(sim.Second)

	if len(sinks[2].pkts) != 1 || len(sinks[3].pkts) != 1 {
		t.Fatalf("want one packet each, got %d/%d", len(sinks[2].pkts), len(sinks[3].pkts))
	}
	// First frame: 300 ingress + 300 uplink + 300 egress. Second frame
	// finishes ingress at 300 but waits for the uplink until 600.
	if got, want := sinks[2].at[0], sim.Time(900); got != want {
		t.Fatalf("first delivery at %v, want %v", got, want)
	}
	if got, want := sinks[3].at[0], sim.Time(1200); got != want {
		t.Fatalf("second delivery at %v, want %v", got, want)
	}
	if sw.UplinkBusy != 600 {
		t.Fatalf("UplinkBusy = %v, want 600ns", sw.UplinkBusy)
	}
}

func TestEgressQueueCapDrops(t *testing.T) {
	p := DefaultParams()
	p.QueueCap = 4
	eng, sw, sinks := newTestSwitch(t, p, 2)

	for i := 0; i < 10; i++ {
		sw.Port(0).Send(&netsim.Packet{Bytes: 1500, Flow: 1, Seq: int64(i)})
	}
	eng.Run(sim.Second)

	if got := len(sinks[1].pkts); got != 4 {
		t.Fatalf("delivered %d, want 4 (QueueCap)", got)
	}
	if sw.Port(1).EgressDrops != 6 {
		t.Fatalf("EgressDrops = %d, want 6", sw.Port(1).EgressDrops)
	}
	if sw.Port(1).EgressQueued() != 0 {
		t.Fatalf("egressQueued = %d after drain, want 0", sw.Port(1).EgressQueued())
	}
}

func TestRouteDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, DefaultParams())
	s := &sink{eng: eng}
	sw.AddPort("h0", s)
	sw.SetRouter(func(src *Port, p *netsim.Packet) (int, bool) { return 0, p.Flow != 99 })

	sw.Port(0).Send(&netsim.Packet{Bytes: 100, Flow: 99})
	sw.Port(0).Send(&netsim.Packet{Bytes: 100, Flow: 1})
	eng.Run(sim.Second)

	if sw.RouteDrops != 1 || len(s.pkts) != 1 {
		t.Fatalf("RouteDrops=%d delivered=%d, want 1/1", sw.RouteDrops, len(s.pkts))
	}
}

func TestSendFaultHook(t *testing.T) {
	eng, sw, sinks := newTestSwitch(t, DefaultParams(), 2)
	actions := []netsim.FaultAction{netsim.FaultDrop, netsim.FaultDup, netsim.FaultNone}
	i := 0
	sw.Port(0).SendFault = func() netsim.FaultAction {
		a := actions[i%len(actions)]
		i++
		return a
	}
	for j := 0; j < 3; j++ {
		sw.Port(0).Send(&netsim.Packet{Bytes: 100, Flow: 1, Seq: int64(j)})
	}
	eng.Run(sim.Second)

	// Frame 0 dropped, frame 1 duplicated, frame 2 normal: 3 arrivals.
	if got := len(sinks[1].pkts); got != 3 {
		t.Fatalf("delivered %d, want 3 (drop + dup + normal)", got)
	}
	if sinks[1].pkts[0].Seq != 1 || sinks[1].pkts[1].Seq != 1 || sinks[1].pkts[2].Seq != 2 {
		t.Fatalf("unexpected sequence: %d %d %d",
			sinks[1].pkts[0].Seq, sinks[1].pkts[1].Seq, sinks[1].pkts[2].Seq)
	}
	// The duplicate rode its original's egress slot and released none.
	if q := sw.Port(1).EgressQueued(); q != 0 {
		t.Fatalf("EgressQueued = %d after delivery, want 0", q)
	}
}

// The same send pattern must produce identical delivery times on a
// fresh switch — the determinism contract the cluster layer builds on.
func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		p := DefaultParams()
		p.UplinkGbps = 10
		eng, sw, sinks := newTestSwitch(t, p, 4)
		for i := 0; i < 64; i++ {
			src := i % 4
			sw.Port(src).Send(&netsim.Packet{Bytes: 200 + 37*i, Flow: (i * 7) % 4, Seq: int64(i)})
			eng.Run(sim.Time(i) * 100)
		}
		eng.Run(sim.Second)
		var all []sim.Time
		for _, s := range sinks {
			all = append(all, s.at...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay delivered %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResetStats(t *testing.T) {
	eng, sw, _ := newTestSwitch(t, DefaultParams(), 2)
	sw.Port(0).Send(&netsim.Packet{Bytes: 1500, Flow: 1})
	eng.Run(sim.Second)
	sw.ResetStats()
	if sw.Forwarded != 0 || sw.Port(0).TxPkts != 0 || sw.Port(1).RxPkts != 0 || sw.UplinkBusy != 0 {
		t.Fatal("ResetStats left counters non-zero")
	}
}

// counter is an endpoint that only counts, so it allocates nothing.
type counter int

func (c *counter) Receive(*netsim.Packet) { *c++ }

// TestHopAllocs pins one hop through the switch, send to delivery, at
// zero allocations: the egress delay line carries the frame.
func TestHopAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := New(eng, DefaultParams())
	var delivered counter
	src := sw.AddPort("h0", &delivered)
	sw.AddPort("h1", &delivered)
	sw.SetRouter(func(from *Port, _ *netsim.Packet) (int, bool) { return 1 - from.Index(), true })
	pkt := &netsim.Packet{Bytes: 1024}
	got := testing.AllocsPerRun(1000, func() {
		src.Send(pkt)
		eng.Step()
	})
	if got != 0 {
		t.Errorf("fabric hop: %v allocs/op, want 0", got)
	}
	if delivered != 1001 || sw.Port(1).EgressQueued() != 0 {
		t.Fatalf("delivered %d frames with %d queued, want 1001 and none", delivered, sw.Port(1).EgressQueued())
	}
}
