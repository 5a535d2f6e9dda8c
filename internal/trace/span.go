// Package trace holds the simulator's event-path observers: a span
// tracer (PathTracer) that attributes latency to each stage a
// notification unit crosses, and an execution timeline (Timeline),
// exported as Perfetto/Chrome-trace JSON, that records VM exits,
// interrupt deliveries, redirections and vCPU scheduling.
//
// Both are optional and nil-safe, so model components hold them
// unconditionally and pay nothing when tracing is disabled.
package trace

import (
	"fmt"

	"es2/internal/metrics"
	"es2/internal/sim"
)

// Stage enumerates the stages of the virtual I/O event path, in path
// order. A span tracer attributes latency to each stage a notification
// unit crosses on its way from the guest's doorbell (or the wire) to
// final delivery, so experiments can ask which stage a mechanism
// actually shortened.
type Stage uint8

const (
	// StageNotify is request notification: guest doorbell write ->
	// back-end handler pops the request. Exit-driven kicks pay the VM
	// exit and worker wake here; hybrid/sidecore polling collapses it
	// to the residual poll-turn wait.
	StageNotify Stage = iota
	// StageBackendTX is back-end TX service: request popped -> packet
	// on the wire.
	StageBackendTX
	// StageBackendRX is back-end RX service: wire arrival (tap
	// backlog) -> used buffer posted to the guest RX ring.
	StageBackendRX
	// StageSignal is interrupt delivery: irqfd signal raised by the
	// back-end -> the vector accepted by a vCPU.
	StageSignal
	// StagePIWait is the posted-interrupt sub-stage of StageSignal:
	// PIR post -> hardware sync into the virtual APIC page (covers
	// SN-suppressed waits for the vCPU to be scheduled back in).
	StagePIWait
	// StageSchedIn is host scheduling: thread wakeup -> running on a
	// core.
	StageSchedIn
	// StageRingWait is guest-side notification: used buffer posted ->
	// NAPI poll collects it.
	StageRingWait
	// StageDeliver is guest protocol processing: NAPI collection ->
	// socket/flow handler delivery.
	StageDeliver

	// NumStages is the number of defined stages.
	NumStages
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageNotify:
		return "notify"
	case StageBackendTX:
		return "backend-tx"
	case StageBackendRX:
		return "backend-rx"
	case StageSignal:
		return "signal"
	case StagePIWait:
		return "pi-wait"
	case StageSchedIn:
		return "sched-in"
	case StageRingWait:
		return "ring-wait"
	case StageDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// Mechanism tags how a unit traversed a stage, so per-stage histograms
// can be split by delivery mechanism (the comparisons the paper's
// evaluation turns on).
type Mechanism uint8

const (
	// MechNone marks stages with a single traversal mechanism.
	MechNone Mechanism = iota
	// MechExit is an exit-driven notification (the kick trapped).
	MechExit
	// MechPolled is a notification picked up without a VM exit
	// (hybrid/sidecore polling, or suppressed mid-service).
	MechPolled
	// MechEmulated is software-emulated LAPIC interrupt injection.
	MechEmulated
	// MechPosted is hardware posted-interrupt delivery.
	MechPosted
	// MechRedirected is delivery after an ES2 redirection decision
	// moved the interrupt off its affinity vCPU.
	MechRedirected

	// NumMechanisms is the number of defined mechanisms.
	NumMechanisms
)

// String names the mechanism (empty for MechNone).
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return ""
	case MechExit:
		return "exit"
	case MechPolled:
		return "polled"
	case MechEmulated:
		return "emulated"
	case MechPosted:
		return "posted"
	case MechRedirected:
		return "redirected"
	default:
		return fmt.Sprintf("Mechanism(%d)", uint8(m))
	}
}

// StageStats summarizes one (stage, mechanism) cell of the event-path
// latency breakdown.
type StageStats struct {
	Stage     Stage
	Mechanism Mechanism
	Count     uint64
	Mean      sim.Time
	P50       sim.Time
	P99       sim.Time
	Max       sim.Time
}

// PathTracer derives per-stage latency histograms from stage-transition
// timestamps recorded by the instrumented layers, and optionally feeds
// a Timeline. A nil *PathTracer is safe to call (no-op), so every
// component can hold one unconditionally at zero cost when tracing is
// disabled.
//
// All state is owned by one simulation engine; no locking.
type PathTracer struct {
	hist [NumStages][NumMechanisms]*metrics.LogHistogram
	// open tracks in-flight interrupt-signal spans keyed by
	// (vm, vector); a second signal for a vector whose span is still
	// open coalesces into it, as the interrupt itself coalesces in the
	// (v)APIC's IRR.
	open map[uint32]signalSpan
	tl   *Timeline
}

type signalSpan struct {
	t    sim.Time
	mech Mechanism
}

// NewPathTracer creates a span tracer; tl may be nil when no timeline
// export is wanted.
func NewPathTracer(tl *Timeline) *PathTracer {
	return &PathTracer{open: make(map[uint32]signalSpan), tl: tl}
}

// TL returns the attached timeline (nil-safe; may return nil).
func (p *PathTracer) TL() *Timeline {
	if p == nil {
		return nil
	}
	return p.tl
}

// Observe records one stage traversal of duration d. Negative d (from
// clock-identical stamps after resets) is clamped to zero.
func (p *PathTracer) Observe(s Stage, m Mechanism, d sim.Time) {
	if p == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h := p.hist[s][m]
	if h == nil {
		h = metrics.NewLogHistogram()
		p.hist[s][m] = h
	}
	h.Observe(d)
}

func signalKey(vm int, vec uint8) uint32 { return uint32(vm)<<8 | uint32(vec) }

// OpenSignal opens an interrupt-delivery span for (vm, vec) at t. If a
// span for the vector is already open the new signal coalesces into it
// (the earlier origin is kept — matching IRR semantics, where the
// interrupt the guest eventually services is the first unserviced one).
func (p *PathTracer) OpenSignal(vm int, vec uint8, mech Mechanism, t sim.Time) {
	if p == nil {
		return
	}
	k := signalKey(vm, vec)
	if _, ok := p.open[k]; ok {
		return
	}
	p.open[k] = signalSpan{t: t, mech: mech}
}

// CloseSignal closes the open span for (vm, vec) at t, observing its
// latency under the mechanism recorded at open. Closing a vector with
// no open span is a no-op (per-vCPU vectors, spans dropped by Reset).
func (p *PathTracer) CloseSignal(vm int, vec uint8, t sim.Time) {
	if p == nil {
		return
	}
	k := signalKey(vm, vec)
	sp, ok := p.open[k]
	if !ok {
		return
	}
	delete(p.open, k)
	p.Observe(StageSignal, sp.mech, t-sp.t)
}

// Reset discards all recorded observations and in-flight signal spans
// (used at the measurement-window boundary).
func (p *PathTracer) Reset() {
	if p == nil {
		return
	}
	for s := range p.hist {
		for m := range p.hist[s] {
			if p.hist[s][m] != nil {
				p.hist[s][m].Reset()
			}
		}
	}
	for k := range p.open {
		delete(p.open, k)
	}
}

// Stats returns the non-empty (stage, mechanism) cells in path order
// (stage-major, mechanism-minor — deterministic).
func (p *PathTracer) Stats() []StageStats {
	if p == nil {
		return nil
	}
	var out []StageStats
	for s := Stage(0); s < NumStages; s++ {
		for m := Mechanism(0); m < NumMechanisms; m++ {
			h := p.hist[s][m]
			if h == nil || h.Count() == 0 {
				continue
			}
			out = append(out, StageStats{
				Stage: s, Mechanism: m, Count: h.Count(),
				Mean: h.Mean(), P50: h.Quantile(0.5), P99: h.Quantile(0.99), Max: h.Max(),
			})
		}
	}
	return out
}

// Hist exposes the histogram of one cell (nil when never observed) for
// tests and custom reports.
func (p *PathTracer) Hist(s Stage, m Mechanism) *metrics.LogHistogram {
	if p == nil {
		return nil
	}
	return p.hist[s][m]
}
