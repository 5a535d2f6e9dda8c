// Package causal is the simulator's one event-path probe. It times
// the virtual I/O event path in one stage taxonomy (Stage) two ways:
//
//   - Chains. The causal chain of every completed request/response
//     pair threaded through the path: guest TX virtqueue → vhost
//     handler → netsim/fabric transit → peer service → return path →
//     posted/emulated interrupt → wakeup-to-run → guest RX completion.
//     Each layer stamps the chain riding on the packet with a
//     (stage, host, time) mark at the instant the request leaves that
//     layer. Stage durations are the differences between consecutive
//     marks, so the per-stage contributions of a chain telescope to
//     exactly the end-to-end latency the workload measures — the
//     reconciliation invariant the tests assert. The closed-loop
//     request/response workloads are strictly sequential, so the
//     chain is the critical path.
//   - Spectra. Every packet also carries an open span, so workloads
//     that open no chains (netperf streams) are timed too: the same
//     probe calls that mark chains close each packet's span into a
//     per-stage latency histogram kept by the host's probe.
//
// Everything here is observational: marks are clock reads at instants
// the simulation already reaches, draw no randomness, and never
// change behavior, so a run with the probe enabled is bit-identical
// to a plain run. Every entry point is a safe no-op on a nil probe or
// nil chain, so call sites need no guards.
package causal

import (
	"es2/internal/metrics"
	"es2/internal/sim"
)

// Stage identifies the event-path segment ending at a mark, in path
// order. A request-direction and a response-direction traversal both
// contribute to the same stage (e.g. backend-tx on the client's host
// for the request and on the server's host for the response).
type Stage uint8

const (
	// StageGuestTX is request initiation to the TX doorbell on a fresh
	// chain: the client guest's stack and scheduling delays.
	StageGuestTX Stage = iota
	// StageService is guest RX dispatch to the response TX doorbell:
	// application queueing, service time and response build.
	StageService
	// StageNotifyExit is TX doorbell to vhost dequeue when the kick
	// took an I/O-instruction exit. Lost-kick recovery (the netdev TX
	// watchdog) lands here, so faulted runs shift blame into it.
	StageNotifyExit
	// StageNotifyPoll is the same span with the kick suppressed
	// (vhost polling mode or exit-less doorbells).
	StageNotifyPoll
	// StageBackendTX is vhost dequeue to wire transmit.
	StageBackendTX
	// StageWire is wire/fabric transit, including switch queueing and
	// the external peer's turnaround where one is involved.
	StageWire
	// StageBackendRX is wire arrival to the RX used-ring publish.
	StageBackendRX
	// StageSignal is used-ring publish to interrupt injection: the
	// vhost turn-end signal batching and any interrupt moderation.
	StageSignal
	// StageWakeup is injection to the target vCPU getting back on a
	// core; zero when the vCPU was already running.
	StageWakeup
	// StageIRQPosted is on-core to guest handler entry via posted
	// interrupts (no exit).
	StageIRQPosted
	// StageIRQEmulated is the same span via emulated injection
	// (external-interrupt exit + re-entry). PI-outage fallback moves
	// blame from StageIRQPosted to here.
	StageIRQEmulated
	// StageRingWait is handler entry to NAPI collecting the buffer
	// (softirq scheduling and earlier-batch processing).
	StageRingWait
	// StageGuestRX is NAPI collect to protocol dispatch: the guest
	// receive stack.
	StageGuestRX

	// NumStages bounds the stage enum.
	NumStages
)

var stageNames = [NumStages]string{
	"guest-tx", "service", "notify-exit", "notify-poll", "backend-tx",
	"wire", "backend-rx", "signal", "wakeup", "irq-posted",
	"irq-emulated", "ring-wait", "guest-rx",
}

// String returns the stable snake/kebab-case stage name used in JSON
// exports and rendered tables.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "?"
}

// Mark is one stamped point of a chain: the segment since the
// previous mark (or the chain start) is attributed to Stage on Host.
type Mark struct {
	Stage Stage
	Host  uint8
	T     sim.Time
}

// Unit is the observer state one packet carries along the event path:
// the causal chain of the request it belongs to, if any, and the
// packet's own open span. Packets embed it by value, so a duplicate
// delivered by a faulty wire times its own span while sharing the
// chain.
type Unit struct {
	// Chain is the per-request causal chain (nil when causal tracking
	// is off or the packet belongs to no tracked request).
	Chain *Chain

	// spanT is when the open span began; exit records whether the
	// doorbell that opened it took an I/O-instruction exit.
	spanT sim.Time
	open  bool
	exit  bool
}

// Chain is the causal record of one in-flight request. It rides the
// request across layers as netsim.Packet.Chain; fault-injected
// duplicate deliveries share the pointer, which is safe because marks
// clamp to monotonic time and completion freezes the chain.
type Chain struct {
	flow  int
	seq   int64
	start sim.Time
	marks []Mark
	done  bool

	// kickExit records whether the most recent TX doorbell took an
	// I/O-instruction exit, deciding StageNotifyExit vs
	// StageNotifyPoll at the matching vhost dequeue.
	kickExit bool
	// hops counts fabric traversals (annotation only; transit time is
	// part of StageWire).
	hops uint32
}

// Mark stamps stage on host at t, clamped so mark times never run
// backwards (duplicate deliveries and coalesced interrupts may replay
// an earlier instant). No-op on a nil or completed chain.
func (c *Chain) Mark(stage Stage, host uint8, t sim.Time) {
	if c == nil || c.done {
		return
	}
	if last := c.lastT(); t < last {
		t = last
	}
	if n := len(c.marks); n > 0 && c.marks[n-1].Stage == stage && c.marks[n-1].Host == host {
		// Consecutive marks of the same stage on the same host merge
		// into one segment (e.g. guest-rx stamped at dispatch and again
		// at the workload's completion instant).
		c.marks[n-1].T = t
		return
	}
	c.marks = append(c.marks, Mark{Stage: stage, Host: host, T: t})
}

// MarkSend stamps the TX doorbell: StageGuestTX on a fresh chain (the
// client's first transmit), StageService on a continued one (the
// responder's reply), remembering the kick mechanism for the matching
// vhost-side MarkNotify.
func (c *Chain) MarkSend(host uint8, t sim.Time, exitKick bool) {
	if c == nil || c.done {
		return
	}
	stage := StageGuestTX
	if len(c.marks) > 0 {
		stage = StageService
	}
	c.kickExit = exitKick
	c.Mark(stage, host, t)
}

// MarkNotify stamps the vhost dequeue with the notify stage matching
// the doorbell's kick mechanism.
func (c *Chain) MarkNotify(host uint8, t sim.Time) {
	if c == nil {
		return
	}
	stage := StageNotifyPoll
	if c.kickExit {
		stage = StageNotifyExit
	}
	c.Mark(stage, host, t)
}

// AddHop counts one fabric traversal.
func (c *Chain) AddHop() {
	if c == nil || c.done {
		return
	}
	c.hops++
}

// LastT returns the time of the most recent mark, or the chain start.
func (c *Chain) LastT() sim.Time {
	if c == nil {
		return 0
	}
	return c.lastT()
}

func (c *Chain) lastT() sim.Time {
	if n := len(c.marks); n > 0 {
		return c.marks[n-1].T
	}
	return c.start
}

// Probe is the host-bound event-path hook: the single-host runner
// hands every layer host 0, the cluster runner one probe per simulated
// host. Each boundary is one probe call that stamps the unit's chain
// (when the run tracks chains) and closes the unit's span into the
// probe's spectra (when it keeps them). All methods are nil-safe.
type Probe struct {
	t    *Tracker
	host uint8
	// spectra holds one span-latency histogram per stage (nil unless
	// the probe was created with spectra).
	spectra *[NumStages]metrics.LogHistogram
}

// NewProbe returns host's probe: it stamps chains for t (nil when the
// run tracks none) and, with spectra, keeps a latency histogram per
// stage of every span a unit closes on this host. It returns nil, a
// valid no-op probe, when neither is wanted.
func NewProbe(t *Tracker, host uint8, spectra bool) *Probe {
	if t == nil && !spectra {
		return nil
	}
	p := &Probe{t: t, host: host}
	if spectra {
		p.spectra = new([NumStages]metrics.LogHistogram)
	}
	return p
}

// Mark stamps stage at t on the probe's host: the unit's chain gets a
// mark, and its open span closes into stage and reopens at t.
func (p *Probe) Mark(u *Unit, stage Stage, t sim.Time) {
	if p == nil {
		return
	}
	u.Chain.Mark(stage, p.host, t)
	p.span(u, stage, t)
}

// MarkSend stamps the TX doorbell (see Chain.MarkSend) and opens the
// unit's notify span, remembering whether this kick exits.
func (p *Probe) MarkSend(u *Unit, t sim.Time, exitKick bool) {
	if p == nil {
		return
	}
	u.Chain.MarkSend(p.host, t, exitKick)
	u.spanT, u.open, u.exit = t, true, exitKick
}

// MarkNotify stamps the vhost dequeue (see Chain.MarkNotify). The span
// closes into notify-exit or notify-poll by the kick of the doorbell
// that opened it.
func (p *Probe) MarkNotify(u *Unit, t sim.Time) {
	if p == nil {
		return
	}
	u.Chain.MarkNotify(p.host, t)
	stage := StageNotifyPoll
	if u.exit {
		stage = StageNotifyExit
	}
	p.span(u, stage, t)
}

// Episode is one captured RX interrupt delivery, snapshotted at
// handler entry: the injection instant, the handling vCPU's last
// sched-in, the handler entry and whether the vector was posted.
type Episode struct {
	Inject, SchedIn, Entry sim.Time
	Posted                 bool
	Valid                  bool
}

// Collect stamps NAPI collecting the unit's buffer at t. A unit
// published at or before ep's injection was waiting in the used ring
// when that interrupt fired, so the episode's spans belong on it:
// signal (publish → injection), wakeup (→ the target vCPU on a core),
// irq-posted or irq-emulated (→ handler entry), then ring-wait (→ t).
// A unit published after the injection was merely coalesced into the
// same poll and gets only ring-wait. The rule applies to the chain, by
// its last mark, and to the span, by its start.
func (p *Probe) Collect(u *Unit, ep Episode, t sim.Time) {
	if p == nil {
		return
	}
	irq := StageIRQEmulated
	if ep.Posted {
		irq = StageIRQPosted
	}
	if c := u.Chain; c != nil && ep.Valid && c.LastT() <= ep.Inject {
		c.Mark(StageSignal, p.host, ep.Inject)
		c.Mark(StageWakeup, p.host, ep.SchedIn)
		c.Mark(irq, p.host, ep.Entry)
	}
	u.Chain.Mark(StageRingWait, p.host, t)
	if u.open && ep.Valid && u.spanT <= ep.Inject {
		p.span(u, StageSignal, ep.Inject)
		p.span(u, StageWakeup, ep.SchedIn)
		p.span(u, irq, ep.Entry)
	}
	p.span(u, StageRingWait, t)
}

// span closes the unit's open span at t into stage's spectrum and
// opens the next one at t, clamping t as Chain.Mark does so spans
// never run backwards. A unit without an open span (a packet from
// outside the simulated hosts) only opens one.
func (p *Probe) span(u *Unit, stage Stage, t sim.Time) {
	if p.spectra == nil {
		return
	}
	if u.open {
		if t < u.spanT {
			t = u.spanT
		}
		p.spectra[stage].Observe(t - u.spanT)
	}
	u.spanT, u.open = t, true
}

// ResetSpectra drops every span observation (at the measurement-window
// boundary). Open spans ride their units and survive, closing into the
// window as in-flight chains do.
func (p *Probe) ResetSpectra() {
	if p == nil || p.spectra == nil {
		return
	}
	for s := range p.spectra {
		p.spectra[s].Reset()
	}
}

// Spectrum returns the span-latency histogram of stage, or nil when
// the probe keeps no spectra.
func (p *Probe) Spectrum(s Stage) *metrics.LogHistogram {
	if p == nil || p.spectra == nil {
		return nil
	}
	return &p.spectra[s]
}

// Start opens a chain for one request at its latency-clock start.
// Returns nil (a valid no-op chain) when the probe is disabled.
func (p *Probe) Start(flow int, seq int64, now sim.Time) *Chain {
	if p == nil || p.t == nil {
		return nil
	}
	return &Chain{flow: flow, seq: seq, start: now}
}

// Complete closes a chain at the workload's completion instant,
// stamping the final segment as stage so the per-stage durations sum
// exactly to now - start, and records it with the tracker.
func (p *Probe) Complete(c *Chain, stage Stage, now sim.Time) {
	if p == nil || p.t == nil || c == nil || c.done {
		return
	}
	c.Mark(stage, p.host, now)
	c.done = true
	p.t.record(c, now)
}

// Tracker collects completed chains and builds the blame profile,
// tail exemplars and what-if estimates. One tracker serves a whole
// scenario (all hosts of a cluster); it is engine-ordered like the
// rest of the simulation and needs no locking.
type Tracker struct {
	// LabelHosts enables "hN" host labels in reports (the cluster
	// runner); the single-host runner leaves labels empty.
	LabelHosts bool

	// Degraded, when non-nil, classifies each chain at completion:
	// returning true additionally accounts its stage durations into
	// the report's degraded blame rows (the cluster runner flags
	// requests completing while a chaos fault is active, so
	// outage-tinted tails are separable from healthy blame). Purely
	// observational.
	Degraded func() bool

	exemplars int // retained slowest chains
	recs      []record
	tail      []*Chain // k slowest completed chains, sorted slowest-first
	tailE2E   []sim.Time

	// Aggregate accumulators, updated at completion so reports need no
	// second pass over the chains. hostDurs is keyed stage<<8|host and
	// iterated in sorted key order, so reports stay deterministic.
	stageTotal [NumStages]sim.Time
	stageCount [NumStages]uint64
	hostDurs   map[uint16]*hostAgg

	// Degraded-request accumulators (chaos runs only).
	degTotal [NumStages]sim.Time
	degCount [NumStages]uint64
	degReqs  int
	degE2E   sim.Time
}

// hostAgg accumulates one (stage, host) blame cell.
type hostAgg struct {
	total sim.Time
	count uint64
}

// record is the compact per-chain summary kept for every completed
// request: enough for exact percentiles and Coz-style what-if replay
// without retaining the full mark list.
type record struct {
	e2e  sim.Time
	durs [NumStages]sim.Time
}

// NewTracker creates a tracker retaining the `exemplars` slowest
// chains with their full timelines.
func NewTracker(exemplars int) *Tracker {
	if exemplars < 0 {
		exemplars = 0
	}
	return &Tracker{exemplars: exemplars}
}

// Probe returns a chain-stamping handle bound to host, without
// spectra (the workloads' handle). Safe on a nil tracker (returns a
// nil, no-op probe).
func (t *Tracker) Probe(host uint8) *Probe { return NewProbe(t, host, false) }

// Reset drops everything recorded so far (called at warmup end).
// Chains still in flight keep their warm-up marks and are recorded on
// completion, mirroring how the latency histograms treat them.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.recs = t.recs[:0]
	t.tail = t.tail[:0]
	t.tailE2E = t.tailE2E[:0]
	t.stageTotal = [NumStages]sim.Time{}
	t.stageCount = [NumStages]uint64{}
	t.hostDurs = nil
	t.degTotal = [NumStages]sim.Time{}
	t.degCount = [NumStages]uint64{}
	t.degReqs = 0
	t.degE2E = 0
}

// Completed returns the number of chains recorded since the last
// Reset.
func (t *Tracker) Completed() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

func (t *Tracker) record(c *Chain, now sim.Time) {
	e2e := now - c.start
	if e2e < 0 {
		e2e = 0
	}
	deg := t.Degraded != nil && t.Degraded()
	if deg {
		t.degReqs++
		t.degE2E += e2e
	}
	var rec record
	rec.e2e = e2e
	prev := c.start
	for _, m := range c.marks {
		d := m.T - prev
		prev = m.T
		rec.durs[m.Stage] += d
		t.stageTotal[m.Stage] += d
		t.stageCount[m.Stage]++
		if deg {
			t.degTotal[m.Stage] += d
			t.degCount[m.Stage]++
		}
		if t.LabelHosts {
			if t.hostDurs == nil {
				t.hostDurs = make(map[uint16]*hostAgg)
			}
			key := uint16(m.Stage)<<8 | uint16(m.Host)
			agg := t.hostDurs[key]
			if agg == nil {
				agg = &hostAgg{}
				t.hostDurs[key] = agg
			}
			agg.total += d
			agg.count++
		}
	}
	t.recs = append(t.recs, rec)
	t.offerTail(c, e2e)
}

// TopStage returns the name of the stage carrying the most total
// blame so far, or "" when nothing has been recorded. Nil-safe; used
// as live correlation context on SLO alert events.
func (t *Tracker) TopStage() string {
	if t == nil {
		return ""
	}
	best, total := Stage(0), sim.Time(0)
	for s := Stage(0); s < NumStages; s++ {
		if t.stageTotal[s] > total {
			best, total = s, t.stageTotal[s]
		}
	}
	if total == 0 {
		return ""
	}
	return best.String()
}

// offerTail inserts c into the slowest-k list. Ordering is fully
// deterministic: larger end-to-end first; ties broken by earlier
// start, then smaller flow, then smaller seq — so replayed runs
// select identical exemplars.
func (t *Tracker) offerTail(c *Chain, e2e sim.Time) {
	if t.exemplars == 0 {
		return
	}
	slower := func(i int) bool {
		if t.tailE2E[i] != e2e {
			return t.tailE2E[i] > e2e
		}
		o := t.tail[i]
		if o.start != c.start {
			return o.start < c.start
		}
		if o.flow != c.flow {
			return o.flow < c.flow
		}
		return o.seq <= c.seq
	}
	pos := 0
	for pos < len(t.tail) && slower(pos) {
		pos++
	}
	if pos >= t.exemplars {
		return
	}
	t.tail = append(t.tail, nil)
	t.tailE2E = append(t.tailE2E, 0)
	copy(t.tail[pos+1:], t.tail[pos:])
	copy(t.tailE2E[pos+1:], t.tailE2E[pos:])
	t.tail[pos] = c
	t.tailE2E[pos] = e2e
	if len(t.tail) > t.exemplars {
		t.tail = t.tail[:t.exemplars]
		t.tailE2E = t.tailE2E[:t.exemplars]
	}
}
