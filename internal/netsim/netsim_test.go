package netsim

import (
	"testing"
	"unsafe"

	"es2/internal/causal"
	"es2/internal/sim"
)

func TestLinkDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, 2*sim.Microsecond) // 40 Gbps, 2us propagation
	var got []*Packet
	var gotAt []sim.Time
	sink := EndpointFunc(func(p *Packet) { got = append(got, p); gotAt = append(gotAt, eng.Now()) })
	l.Attach(EndpointFunc(func(*Packet) {}), sink)

	l.PortA().Send(&Packet{Bytes: 1500})
	eng.RunAll()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets", len(got))
	}
	// 1500B at 40Gbps = 1500/5 = 300ns serialization + 2us propagation.
	want := 300*sim.Nanosecond + 2*sim.Microsecond
	if gotAt[0] != want {
		t.Fatalf("delivered at %v, want %v", gotAt[0], want)
	}
}

func TestLinkSerializationQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, 0)
	var at []sim.Time
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(p *Packet) { at = append(at, eng.Now()) }))
	// Two back-to-back frames: second must wait for the first's
	// serialization.
	l.PortA().Send(&Packet{Bytes: 1500})
	l.PortA().Send(&Packet{Bytes: 1500})
	if d := l.PortA().QueueDelay(); d != 600*sim.Nanosecond {
		t.Fatalf("QueueDelay = %v, want 600ns", d)
	}
	eng.RunAll()
	if len(at) != 2 || at[0] != 300 || at[1] != 600 {
		t.Fatalf("arrivals = %v, want [300ns 600ns]", at)
	}
}

func TestLinkFullDuplex(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, 0)
	var aGot, bGot int
	l.Attach(
		EndpointFunc(func(*Packet) { aGot++ }),
		EndpointFunc(func(*Packet) { bGot++ }),
	)
	// Opposite directions must not contend.
	l.PortA().Send(&Packet{Bytes: 1500})
	l.PortB().Send(&Packet{Bytes: 1500})
	eng.RunAll()
	if aGot != 1 || bGot != 1 {
		t.Fatalf("aGot=%d bGot=%d", aGot, bGot)
	}
	if eng.Now() != 300*sim.Nanosecond {
		t.Fatalf("finished at %v, want 300ns (no cross-direction contention)", eng.Now())
	}
}

func TestPortStats(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 10, 0)
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(*Packet) {}))
	for i := 0; i < 7; i++ {
		l.PortA().Send(&Packet{Bytes: 100})
	}
	eng.RunAll()
	if l.PortA().PacketsSent != 7 || l.PortA().BytesSent != 700 {
		t.Fatalf("stats: %d pkts %d bytes", l.PortA().PacketsSent, l.PortA().BytesSent)
	}
}

func TestTinyPacketMinimumSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 1000, 0) // absurdly fast
	var at sim.Time
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(p *Packet) { at = eng.Now() }))
	l.PortA().Send(&Packet{Bytes: 1})
	eng.RunAll()
	if at < 1 {
		t.Fatal("serialization must take at least 1ns")
	}
}

func TestSendValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("Send without endpoint should panic")
		}
	}()
	NewLink(eng, 40, 0).PortA().Send(&Packet{Bytes: 1})
}

func TestNewLinkValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive rate should panic")
		}
	}()
	NewLink(sim.NewEngine(1), 0, 0)
}

func TestQueueDelayDrainsOverTime(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 8, 0) // 1 byte/ns
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(*Packet) {}))
	l.PortA().Send(&Packet{Bytes: 1000})
	l.PortA().Send(&Packet{Bytes: 1000})
	if d := l.PortA().QueueDelay(); d != 2000 {
		t.Fatalf("QueueDelay = %v, want 2us", d)
	}
	eng.Run(1500)
	if d := l.PortA().QueueDelay(); d != 500 {
		t.Fatalf("QueueDelay after 1.5us = %v, want 500ns", d)
	}
	eng.RunAll()
	if d := l.PortA().QueueDelay(); d != 0 {
		t.Fatalf("QueueDelay when idle = %v, want 0", d)
	}
}

func TestPacketFieldsPreserved(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, 0)
	var got *Packet
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(p *Packet) { got = p }))
	sent := &Packet{Bytes: 512, Kind: 3, Flow: 7, Seq: 99, ReqID: 5, RespBytes: 1024, Segs: 2}
	l.PortA().Send(sent)
	eng.RunAll()
	if got != sent || got.Kind != 3 || got.Flow != 7 || got.Seq != 99 || got.ReqID != 5 || got.RespBytes != 1024 || got.Segs != 2 {
		t.Fatalf("packet mangled: %+v", got)
	}
}

// TestSendDeliverAllocs pins a frame's send and its delivery at zero
// allocations: the port's delay line carries the frame, not a closure.
func TestSendDeliverAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, sim.Microsecond)
	delivered := 0
	sink := EndpointFunc(func(*Packet) { delivered++ })
	l.Attach(sink, sink)
	pkt := &Packet{Bytes: 1024}
	got := testing.AllocsPerRun(1000, func() {
		l.PortA().Send(pkt)
		eng.Step()
	})
	if got != 0 {
		t.Errorf("send+deliver: %v allocs/op, want 0", got)
	}
	if delivered != 1001 || eng.Pending() != 0 {
		t.Fatalf("delivered %d frames with %d pending, want 1001 and none", delivered, eng.Pending())
	}
}

// TestPoolRecycles: Get after Release hands back the released packet,
// zeroed, causal state included.
func TestPoolRecycles(t *testing.T) {
	var pool Pool
	p := pool.Get()
	p.Bytes, p.Kind, p.Flow, p.Seq = 100, 1, 2, 3
	p.ReqID, p.RespBytes, p.Segs = 4, 5, 6
	p.Chain = &causal.Chain{}
	p.Release()
	if !p.Released() {
		t.Fatal("a released packet must report Released")
	}
	q := pool.Get()
	if q != p {
		t.Fatal("Get after Release must return the released packet")
	}
	if q.Released() || *q != (Packet{pool: &pool}) {
		t.Fatalf("recycled packet not zeroed: %+v", *q)
	}
}

// TestPoolDuplicateReleasedOnItsOwn: a FaultDup copy belongs to the
// original's pool, and each copy's consumer releases its own.
func TestPoolDuplicateReleasedOnItsOwn(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewLink(eng, 40, 0)
	var got []*Packet
	l.Attach(EndpointFunc(func(*Packet) {}), EndpointFunc(func(p *Packet) {
		got = append(got, p)
		p.Release()
	}))
	l.PortA().SendFault = func() FaultAction { return FaultDup }
	var pool Pool
	orig := pool.Get()
	orig.Bytes, orig.Seq = 512, 1
	l.PortA().Send(orig)
	eng.RunAll()
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("want two distinct deliveries, got %d", len(got))
	}
	a, b := pool.Get(), pool.Get()
	if a == b || (a != got[0] && a != got[1]) || (b != got[0] && b != got[1]) {
		t.Fatal("both copies must return to the original's pool")
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	var pool Pool
	p := pool.Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release must panic")
		}
	}()
	p.Release()
}

func TestReleaseLiteralIsNoop(t *testing.T) {
	p := &Packet{Bytes: 64, Seq: 9}
	p.Release()
	p.Release()
	if p.Released() || p.Bytes != 64 || p.Seq != 9 {
		t.Fatalf("Release changed a pool-less packet: %+v", *p)
	}
}

// A packet stays within the 80-byte allocation size class: every frame
// in flight is one, and a word more moves each into the 96-byte class.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 80 {
		t.Errorf("Packet is %d bytes, want at most 80", got)
	}
}
