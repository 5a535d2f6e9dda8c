package workloads

import (
	"slices"
	"testing"
	"time"

	"es2/internal/guest"
	"es2/internal/loadgen"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
)

// The open-loop tests replay a 24h day over olWindow after olWarmup:
// a low phase, a high phase at twice the rate, then an off phase that
// puts every stream to sleep so the backlog drains by the end of the
// window (past it, the day wraps to the low phase).
const (
	olWarmup = 10 * sim.Millisecond
	olWindow = 30 * sim.Millisecond
)

func olRuntime() *loadgen.Runtime {
	return loadgen.NewRuntime(loadgen.Profile{Day: 24 * time.Hour, Phases: []loadgen.Phase{
		{Name: "low", Start: 0, Multiplier: 1},
		{Name: "high", Start: 8 * time.Hour, Multiplier: 2},
		{Name: "off", Start: 16 * time.Hour, Multiplier: 0},
	}}, olWarmup, olWindow)
}

// olConfigs returns n Poisson streams at rate per second, Flows unset.
// Their samplers fork from one fixed root, so two calls give the same
// arrival sequences.
func olConfigs(n int, rate float64, maxOutstanding int) []StreamConfig {
	root := sim.NewRand(42)
	var cfgs []StreamConfig
	for i := 0; i < n; i++ {
		cfgs = append(cfgs, StreamConfig{
			RatePerSec: rate,
			Sampler:    loadgen.NewSampler(loadgen.Poisson, 0, root.Fork()),
			ReqBytes:   64, RespBytes: 512,
			MaxOutstanding: maxOutstanding,
			Start:          sim.Millisecond * sim.Time(i) / sim.Time(n),
		})
	}
	return cfgs
}

// echoPeer answers each request with a single response segment.
type echoPeer struct{ pe *Peer }

func (e echoPeer) PeerReceive(p *netsim.Packet) {
	if p.Kind == guest.KindRequest {
		r := e.pe.Pool.Get()
		r.Bytes, r.Kind, r.Flow = p.RespBytes, guest.KindResponse, p.Flow
		r.ReqID, r.Segs = p.ReqID, 1
		e.pe.Send(r)
	}
	p.Release()
}

// addPeerStreams puts each stream on the peer, one flow each, against
// the guest's request server.
func addPeerStreams(r *rig, c *OpenLoopClient, cfgs []StreamConfig) {
	StartServer(r.kern, 8*sim.Microsecond)
	for _, cfg := range cfgs {
		cfg.Flows = []int{r.ids.Next()}
		c.AddPeerStream(r.peer, cfg)
	}
}

// addGuestStreams puts each stream in the guest with a two-flow
// fan-out, each flow answered by an echoPeer.
func addGuestStreams(r *rig, c *OpenLoopClient, cfgs []StreamConfig) {
	for _, cfg := range cfgs {
		cfg.Flows = []int{r.ids.Next(), r.ids.Next()}
		for _, f := range cfg.Flows {
			r.peer.Register(f, echoPeer{r.peer})
		}
		c.AddStream(r.kern, cfg)
	}
}

// olRun is one open-loop run on a fresh rig: the window counters and
// spectra are reset at the end of warmup, with requests in flight.
type olRun struct {
	c              *OpenLoopClient
	lat            *metrics.LogHistogram
	phaseHists     []*metrics.LogHistogram
	backlogAtReset int
}

func runOpenLoop(t *testing.T, add func(*rig, *OpenLoopClient, []StreamConfig), cfgs []StreamConfig) olRun {
	t.Helper()
	r := newRig(t, true, 2)
	rt := olRuntime()
	run := olRun{lat: metrics.NewLogHistogram()}
	for i := 0; i < rt.NumPhases(); i++ {
		run.phaseHists = append(run.phaseHists, metrics.NewLogHistogram())
	}
	run.c = NewOpenLoopClient(rt, run.phaseHists, run.lat)
	add(r, run.c, cfgs)
	r.eng.Run(olWarmup)
	run.backlogAtReset = run.c.Backlog()
	run.c.ResetStats()
	run.lat.Reset()
	for _, h := range run.phaseHists {
		h.Reset()
	}
	r.eng.Run(olWarmup + olWindow)
	return run
}

func sum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}

// checkAccounting asserts the reconciliation invariants of a drained
// run: every arrival is offered, and admitted or shed; the phase slices
// sum to the totals; requests in flight at the reset drain without
// being billed, so exactly the requests admitted in the window complete
// and are observed.
func checkAccounting(t *testing.T, run olRun) {
	t.Helper()
	c := run.c
	if c.Arrivals() != c.Offered || c.Offered != c.Admitted+c.Shed {
		t.Fatalf("arrivals %d, offered %d, admitted %d + shed %d: do not reconcile",
			c.Arrivals(), c.Offered, c.Admitted, c.Shed)
	}
	if sum(c.PhaseOffered) != c.Offered || sum(c.PhaseShed) != c.Shed || sum(c.PhaseCompleted) != c.Completed {
		t.Fatalf("phase slices %v/%v/%v do not sum to offered %d, shed %d, completed %d",
			c.PhaseOffered, c.PhaseShed, c.PhaseCompleted, c.Offered, c.Shed, c.Completed)
	}
	if c.Completed == 0 || c.Sent < c.Admitted || c.BytesReceived == 0 {
		t.Fatalf("completed %d, sent %d of %d admitted, %d bytes received",
			c.Completed, c.Sent, c.Admitted, c.BytesReceived)
	}
	if run.backlogAtReset == 0 {
		t.Fatal("no request in flight at the reset; the drain goes untested")
	}
	if b := c.Backlog(); b != 0 {
		t.Fatalf("backlog %d after the off phase, want 0", b)
	}
	if c.Completed != c.Admitted {
		t.Fatalf("completed %d, admitted %d: warm-up requests were billed to the window", c.Completed, c.Admitted)
	}
	var phaseObs uint64
	for _, h := range run.phaseHists {
		phaseObs += h.Count()
	}
	if run.lat.Count() != c.Completed || phaseObs != c.Completed {
		t.Fatalf("latency observations %d, per-phase %d, completed %d", run.lat.Count(), phaseObs, c.Completed)
	}
}

func TestPeerSideOpenLoop(t *testing.T) {
	checkAccounting(t, runOpenLoop(t, addPeerStreams, olConfigs(3, 5000, 0)))
}

func TestGuestSideOpenLoopGathersFanOut(t *testing.T) {
	run := runOpenLoop(t, addGuestStreams, olConfigs(3, 5000, 0))
	checkAccounting(t, run)
	// Every admitted request sent one sub-request per leg.
	if c := run.c; c.Sent < 2*c.Admitted {
		t.Fatalf("sent %d sub-requests for %d two-leg requests", c.Sent, c.Admitted)
	}
}

// TestOpenLoopShedsAtCap: one request in flight per stream at a rate
// far above one round trip sheds most arrivals.
func TestOpenLoopShedsAtCap(t *testing.T) {
	for _, side := range []struct {
		name string
		add  func(*rig, *OpenLoopClient, []StreamConfig)
	}{{"peer", addPeerStreams}, {"guest", addGuestStreams}} {
		t.Run(side.name, func(t *testing.T) {
			run := runOpenLoop(t, side.add, olConfigs(2, 1e6, 1))
			checkAccounting(t, run)
			if run.c.Shed == 0 || run.c.Shed < run.c.Admitted {
				t.Fatalf("shed %d of %d offered at cap 1", run.c.Shed, run.c.Offered)
			}
		})
	}
}

// TestOpenLoopOfferedIndependentOfSide: arrivals never observe the
// system, so the same streams offer the same load on either side of
// the wire however differently the two sides complete it.
func TestOpenLoopOfferedIndependentOfSide(t *testing.T) {
	peer := runOpenLoop(t, addPeerStreams, olConfigs(3, 20000, 4))
	guest := runOpenLoop(t, addGuestStreams, olConfigs(3, 20000, 4))
	if peer.c.Offered == 0 || peer.c.Offered != guest.c.Offered ||
		!slices.Equal(peer.c.PhaseOffered, guest.c.PhaseOffered) {
		t.Fatalf("offered %d %v on the peer, %d %v in the guest",
			peer.c.Offered, peer.c.PhaseOffered, guest.c.Offered, guest.c.PhaseOffered)
	}
}

// TestOpenLoopGatherWaitsForEveryLeg: a request completes only when
// every fan-out leg has answered, so one silent leg holds them all.
func TestOpenLoopGatherWaitsForEveryLeg(t *testing.T) {
	r := newRig(t, true, 2)
	c := NewOpenLoopClient(olRuntime(), nil)
	cfg := olConfigs(1, 5000, 0)[0]
	cfg.Flows = []int{r.ids.Next(), r.ids.Next()}
	r.peer.Register(cfg.Flows[0], echoPeer{r.peer}) // the second leg goes unanswered
	c.AddStream(r.kern, cfg)
	r.eng.Run(olWarmup + olWindow)
	if c.Admitted == 0 || c.BytesReceived == 0 || c.Completed != 0 || c.Backlog() != int(c.Admitted) {
		t.Fatalf("admitted %d, %d bytes received, completed %d, backlog %d",
			c.Admitted, c.BytesReceived, c.Completed, c.Backlog())
	}
}

// TestOpenLoopStartsThroughOneLine: a client arms its streams' first
// arrival draws through one delay line, so 100 streams add one event
// to the queue and each still starts. A stream whose start comes
// before the previous one's panics and leaves the client unchanged.
func TestOpenLoopStartsThroughOneLine(t *testing.T) {
	r := newRig(t, true, 2)
	StartServer(r.kern, 8*sim.Microsecond)
	c := NewOpenLoopClient(olRuntime(), nil)
	cfgs := olConfigs(100, 1000, 0)
	pending := r.eng.Pending()
	for _, cfg := range cfgs {
		cfg.Flows = []int{r.ids.Next()}
		c.AddPeerStream(r.peer, cfg)
	}
	if got := r.eng.Pending() - pending; got != 1 {
		t.Fatalf("100 streams added %d events to the queue, want 1", got)
	}
	for _, add := range []struct {
		what string
		fn   func(StreamConfig)
	}{
		{"AddPeerStream", func(cfg StreamConfig) { c.AddPeerStream(r.peer, cfg) }},
		{"AddStream", func(cfg StreamConfig) { c.AddStream(r.kern, cfg) }},
	} {
		cfg := cfgs[0] // starts before the last stream added
		cfg.Flows = []int{r.ids.Next()}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a start before the previous one did not panic", add.what)
				}
			}()
			add.fn(cfg)
		}()
		_, registered := r.peer.flows[cfg.Flows[0]]
		if len(c.streams) != len(cfgs) || r.eng.Pending() != pending+1 || registered {
			t.Errorf("a refused %s left %d streams, %d queued events and its flow registered=%v; want %d, %d and false",
				add.what, len(c.streams), r.eng.Pending()-pending, registered, len(cfgs), 1)
		}
	}
	r.eng.Run(olWarmup + olWindow)
	for i, s := range c.streams {
		if s.Arrivals == 0 {
			t.Fatalf("stream %d never started", i)
		}
	}
}
