package workloads

import (
	"testing"
	"time"

	"es2/internal/loadgen"
	"es2/internal/sim"
)

// The steady-state request paths allocate nothing: packets come from
// the kernel's and the peer's pools and return there, request headers
// ride in the packet by value, and per-request callbacks are bound
// once. Each test warms its rig up so pools, rings and maps reach their
// working size, then counts the allocations of whole operations.

// allocWarmup is long enough for every rig below to reach steady state.
const allocWarmup = 20 * sim.Millisecond

// stepUntil fires events until done reports true.
func stepUntil(t *testing.T, eng *sim.Engine, done func() bool) {
	t.Helper()
	for !done() {
		if !eng.Step() {
			t.Fatal("the engine ran out of events")
		}
	}
}

// roundTripAllocs runs warm-up on r, then reports the allocations of
// one operation: the events up to the next increment of count.
func roundTripAllocs(t *testing.T, r *rig, count func() uint64) float64 {
	t.Helper()
	r.eng.Run(allocWarmup)
	if count() == 0 {
		t.Fatal("nothing completed during warm-up")
	}
	return testing.AllocsPerRun(200, func() {
		n := count()
		stepUntil(t, r.eng, func() bool { return count() > n })
	})
}

// TestMemaslapRoundTripAllocs: with one request outstanding, each
// operation is one memaslap request through the guest server and its
// response back to the peer.
func TestMemaslapRoundTripAllocs(t *testing.T) {
	r := newRig(t, true, 1)
	StartServer(r.kern, 8*sim.Microsecond)
	m := StartMemaslap(r.peer, &r.ids, 1, 1)
	if got := roundTripAllocs(t, r, func() uint64 { return m.Completed }); got != 0 {
		t.Errorf("memaslap round trip: %v allocs/op, want 0", got)
	}
}

// TestRPCRoundTripAllocs: a guest RPC flow's request crosses the wire
// to an echoing peer and its response completes it.
func TestRPCRoundTripAllocs(t *testing.T) {
	r := newRig(t, true, 1)
	c := NewRPCClient(r.kern, 1, 128, 1024)
	id := r.ids.Next()
	r.peer.Register(id, echoPeer{r.peer})
	c.AddFlow(id, 0)
	if got := roundTripAllocs(t, r, func() uint64 { return c.Completed }); got != 0 {
		t.Errorf("RPC round trip: %v allocs/op, want 0", got)
	}
}

// TestOpenLoopArrivalAllocs: an open-loop arrival through its
// response, for a peer-side stream against the guest server and a
// guest-side two-leg stream against echoing peers.
func TestOpenLoopArrivalAllocs(t *testing.T) {
	for _, side := range []struct {
		name string
		add  func(*rig, *OpenLoopClient, []StreamConfig)
	}{{"peer", addPeerStreams}, {"guest", addGuestStreams}} {
		t.Run(side.name, func(t *testing.T) {
			r := newRig(t, true, 2)
			rt := loadgen.NewRuntime(loadgen.Profile{Day: 24 * time.Hour, Phases: []loadgen.Phase{
				{Name: "flat", Start: 0, Multiplier: 1},
			}}, allocWarmup, sim.Second)
			c := NewOpenLoopClient(rt, nil)
			side.add(r, c, olConfigs(2, 5000, 0))
			if got := roundTripAllocs(t, r, func() uint64 { return c.Completed }); got != 0 {
				t.Errorf("open-loop arrival: %v allocs/op, want 0", got)
			}
		})
	}
}

// TestNetperfTCPSegmentAllocs: the guest's TCP stream sends segments
// and the peer's stretch ACKs come back; each operation ends at the
// next ACK.
func TestNetperfTCPSegmentAllocs(t *testing.T) {
	r := newRig(t, true, 1)
	f, _ := NetperfSendTCP(r.kern, r.vm.VCPUs[0], r.peer, r.ids.Next(), 1024, 64)
	if got := roundTripAllocs(t, r, func() uint64 { return f.AckedSegs }); got != 0 {
		t.Errorf("TCP segment plus ACK: %v allocs/op, want 0", got)
	}
}
