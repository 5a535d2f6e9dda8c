package es2

import (
	"fmt"
	"strings"
	"time"

	"es2/internal/loadgen"
	"es2/internal/metrics"
	"es2/internal/sim"
	"es2/internal/workloads"
)

// LoadSpec declares an open-loop load profile for a run (see
// internal/loadgen for the knob semantics): heterogeneous client
// classes with Zipf-skewed per-stream rates, deterministic arrival
// processes (Poisson, Gamma, Weibull burst trains), fan-out patterns,
// and a day-shaped profile of named phases with diurnal scaling and
// time compression. The zero value disables open-loop load and keeps
// the closed-loop workload. Arrivals never observe the system under
// test, so the offered sequence is a pure function of spec and seed —
// identical across configurations, which is what makes "Full ES2
// sustains more of the same offered load" a fair comparison.
type LoadSpec = loadgen.Spec

// LoadClass is one client population of a LoadSpec.
type LoadClass = loadgen.Class

// LoadProfile is the day shape of a LoadSpec: named phases, diurnal
// curve, time compression.
type LoadProfile = loadgen.Profile

// LoadPhase is one named phase of a LoadProfile.
type LoadPhase = loadgen.Phase

// loadSeedSalt decorrelates the load generator's RNG root from the
// engine's: arrival draws come from sim.NewRand(seed ^ loadSeedSalt),
// forked per stream in build order, never from the engine stream the
// system under test consumes.
const loadSeedSalt = 0x6f70656e6c6f6f70 // "openloop"

// kneeSustainRatio is the delivery-ratio floor a phase must hold for
// its offered rate to count as sustained (the collapse-knee metric).
const kneeSustainRatio = 0.95

// LoadPhaseReport is one profile phase's measured window: offered
// versus completed load and the latency spectrum of requests that
// arrived during the phase.
type LoadPhaseReport struct {
	Name       string  `json:"name"`
	Multiplier float64 `json:"multiplier"`
	// Offered/Shed/Completed count requests billed to the phase (by
	// arrival instant; completions may land in a later phase's wall
	// time but are attributed to their arrival's phase).
	Offered   uint64 `json:"offered"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	// OfferedPerSec and CompletedPerSec divide by the phase's simulated
	// window length.
	OfferedPerSec   float64 `json:"offered_per_sec"`
	CompletedPerSec float64 `json:"completed_per_sec"`
	// DeliveryRatio is Completed/Offered (0 when nothing was offered).
	DeliveryRatio float64 `json:"delivery_ratio"`
	// P50/P99 summarize the phase's completion latency.
	P50Latency time.Duration `json:"p50_latency_ns"`
	P99Latency time.Duration `json:"p99_latency_ns"`
}

// LoadReport is the open-loop outcome of a run: offered-vs-completed
// totals, shed and backlog counts, per-phase windows, and the collapse
// knee — the highest per-phase offered rate the system sustained at a
// delivery ratio of at least 0.95. Part of the deterministic JSON
// surface.
type LoadReport struct {
	// TimeScale is the resolved compression factor (modeled seconds per
	// simulated second).
	TimeScale float64 `json:"time_scale"`
	// Streams is the total stream count across classes.
	Streams int `json:"streams"`

	// Arrivals sums the per-stream arrival counters. It is accumulated
	// independently of Offered (streams count their own arrivals, the
	// client counts offered load) and always equals it exactly — the
	// reconciliation invariant tests pin down.
	Arrivals uint64 `json:"arrivals"`
	// Offered counts arrivals in the window; Admitted those that
	// entered the system; Shed those dropped at a full outstanding cap;
	// Completed logical requests finished in the window.
	Offered   uint64 `json:"offered"`
	Admitted  uint64 `json:"admitted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	// BacklogEnd is the number of requests still in flight at the
	// horizon — the queue an overloaded system never drained.
	BacklogEnd int `json:"backlog_end"`

	OfferedPerSec   float64 `json:"offered_per_sec"`
	CompletedPerSec float64 `json:"completed_per_sec"`
	// DeliveryRatio is Completed/Offered over the whole window.
	DeliveryRatio float64 `json:"delivery_ratio"`

	// KneeOfferedPerSec is the highest phase offered rate with a
	// delivery ratio of at least 0.95 — where the run's collapse knee
	// sits. Zero when no phase was sustained.
	KneeOfferedPerSec float64 `json:"knee_offered_per_sec"`

	// Phases lists the per-phase windows in profile order.
	Phases []LoadPhaseReport `json:"phases"`
}

// Render formats the report for the CLI summary: the offered-vs-
// completed line, then one line per phase.
func (l *LoadReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "load       offered=%.0f/s done=%.0f/s delivery=%.1f%% shed=%d backlog=%d knee=%.0f/s (%d streams, %.0fx compression)\n",
		l.OfferedPerSec, l.CompletedPerSec, 100*l.DeliveryRatio,
		l.Shed, l.BacklogEnd, l.KneeOfferedPerSec, l.Streams, l.TimeScale)
	for _, p := range l.Phases {
		fmt.Fprintf(&b, "  %-10s %5.2fx offered=%.0f/s delivery=%.1f%% p99=%v\n",
			p.Name, p.Multiplier, p.OfferedPerSec, 100*p.DeliveryRatio,
			p.P99Latency.Round(time.Microsecond))
	}
	return b.String()
}

// loadStream is one expanded stream of a LoadSpec: its class and its
// stream configuration with every field but Flows set.
type loadStream struct {
	class int
	cls   LoadClass
	cfg   workloads.StreamConfig
}

// fanOut returns how many server VMs, one flow each, the stream's
// requests go to: FanWidth for a scatter stream, one otherwise.
func (st loadStream) fanOut() int {
	if st.cls.FanOut == "scatter" {
		return st.cls.FanWidth
	}
	return 1
}

// expandLoadStreams flattens a defaulted LoadSpec into per-stream
// configurations in deterministic (class, stream) order — the order
// flow ids are assigned in. Each stream's base rate is its Zipf-weighted
// share of its class rate, its sampler draws from its own fork of the
// load RNG root (forked in that order, nothing else drawing from the
// root in between), and its first arrival is staggered over spread.
func expandLoadStreams(s LoadSpec, seed uint64, spread sim.Time) []loadStream {
	root := sim.NewRand(seed ^ loadSeedSalt)
	var out []loadStream
	for ci, cls := range s.Classes {
		w := loadgen.ZipfWeights(cls.Streams, cls.ZipfS)
		classRate := cls.RatePerSec * float64(cls.Streams)
		proc, _ := loadgen.ParseProcess(cls.Process)
		for si := 0; si < cls.Streams; si++ {
			out = append(out, loadStream{class: ci, cls: cls, cfg: workloads.StreamConfig{
				RatePerSec: classRate * w[si],
				Sampler:    loadgen.NewSampler(proc, cls.Shape, root.Fork()),
				ReqBytes:   cls.ReqBytes, RespBytes: cls.RespBytes,
				MaxOutstanding: cls.MaxOutstanding,
			}})
		}
	}
	for i := range out {
		out[i].cfg.Start = spread * sim.Time(i) / sim.Time(len(out))
	}
	return out
}

// buildLoadReport assembles the LoadReport from the clients' window
// counters, the per-phase latency spectra and the resolved profile
// runtime.
func buildLoadReport(rt *loadgen.Runtime, clients []*workloads.OpenLoopClient, phaseHists []*metrics.LogHistogram, streams int, window, horizon sim.Time) *LoadReport {
	rep := &LoadReport{TimeScale: rt.TimeScale(), Streams: streams}
	phases := make([]LoadPhaseReport, rt.NumPhases())
	for _, c := range clients {
		rep.Arrivals += c.Arrivals()
		rep.Offered += c.Offered
		rep.Admitted += c.Admitted
		rep.Shed += c.Shed
		rep.Completed += c.Completed
		rep.BacklogEnd += c.Backlog()
		for i := range phases {
			phases[i].Offered += c.PhaseOffered[i]
			phases[i].Shed += c.PhaseShed[i]
			phases[i].Completed += c.PhaseCompleted[i]
		}
	}
	rep.OfferedPerSec = rate(rep.Offered, window)
	rep.CompletedPerSec = rate(rep.Completed, window)
	if rep.Offered > 0 {
		rep.DeliveryRatio = float64(rep.Completed) / float64(rep.Offered)
	}
	for i := range phases {
		pr := &phases[i]
		pr.Name, pr.Multiplier = rt.PhaseName(i), rt.PhaseMultiplier(i)
		if start, end := rt.PhaseSimWindow(i, horizon); end > start {
			pr.OfferedPerSec = rate(pr.Offered, end-start)
			pr.CompletedPerSec = rate(pr.Completed, end-start)
		}
		if pr.Offered > 0 {
			pr.DeliveryRatio = float64(pr.Completed) / float64(pr.Offered)
			if pr.DeliveryRatio >= kneeSustainRatio && pr.OfferedPerSec > rep.KneeOfferedPerSec {
				rep.KneeOfferedPerSec = pr.OfferedPerSec
			}
		}
		if i < len(phaseHists) && phaseHists[i] != nil && phaseHists[i].Count() > 0 {
			pr.P50Latency = time.Duration(phaseHists[i].Quantile(0.50))
			pr.P99Latency = time.Duration(phaseHists[i].Quantile(0.99))
		}
	}
	rep.Phases = phases
	return rep
}

// newPhaseHists returns one latency spectrum per profile phase of rt.
func newPhaseHists(rt *loadgen.Runtime) []*metrics.LogHistogram {
	hs := make([]*metrics.LogHistogram, rt.NumPhases())
	for i := range hs {
		hs[i] = metrics.NewLogHistogram()
	}
	return hs
}
