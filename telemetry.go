package es2

// Windowed-telemetry wiring: the hooks installed at build time (latency
// histograms at the three instrumented points) and the recorder
// assembled at the start of the measurement window. Everything here is
// purely observational — the probes snapshot counters the simulation
// already maintains, and the recorder's boundary events draw no
// randomness — so a telemetry run is bit-identical to a plain run.

import (
	"fmt"
	"time"

	"es2/internal/faults"
	"es2/internal/metrics"
	"es2/internal/sim"
	"es2/internal/slo"
	"es2/internal/telemetry"
	"es2/internal/vmm"
)

// telemetryState holds the recorder and the latency histograms hooked
// into the simulation layers for the tested VM.
type telemetryState struct {
	rec *telemetry.Recorder

	irqPosted   *metrics.LogHistogram   // APIC injection → handler entry, posted path
	irqEmulated *metrics.LogHistogram   // same span, emulated-injection path
	resLats     []*metrics.LogHistogram // TX avail-publish → vhost dequeue, per queue
	wakeLat     *metrics.LogHistogram   // scheduler wakeup → running, vm0 vCPUs
	vhostWake   *metrics.LogHistogram   // same span for the vhost I/O threads
}

// setupTelemetry installs the latency hooks during the deterministic
// build, before any workload runs: the histograms must exist before the
// first interrupt is injected or descriptor posted so every observation
// has a matching stamp. The histograms are reset at warmup end.
func (tb *testbed) setupTelemetry() {
	tel := &telemetryState{
		irqPosted:   metrics.NewLogHistogram(),
		irqEmulated: metrics.NewLogHistogram(),
		wakeLat:     metrics.NewLogHistogram(),
		vhostWake:   metrics.NewLogHistogram(),
	}
	tb.k.IRQLatPosted = tel.irqPosted
	tb.k.IRQLatEmulated = tel.irqEmulated
	for _, pair := range tb.kerns[0].Dev.Pairs {
		h := metrics.NewLogHistogram()
		pair.TX.SetResidencyProbe(h, tb.eng.Now)
		tel.resLats = append(tel.resLats, h)
	}
	for _, v := range tb.vms[0].VCPUs {
		v.Thread.WakeLat = tel.wakeLat
	}
	// vCPU threads sleep only when they run out of guest tasks (the burn
	// filler usually keeps them runnable); the vhost I/O threads are the
	// hot wakeup path — every kick on an idle queue is one — so they get
	// their own spectrum.
	for _, io := range tb.ios {
		io.Thread.WakeLat = tel.vhostWake
	}
	tb.tel = tel
}

// startTelemetry begins the windowed recording at the start of the
// measurement window: the latency histograms drop their warm-up
// observations and every headline counter is registered as a series,
// base-lined at this instant so windowed deltas integrate exactly to
// the end-of-run scalars.
func (tb *testbed) startTelemetry(end sim.Time) {
	tel := tb.tel
	tel.irqPosted.Reset()
	tel.irqEmulated.Reset()
	for _, h := range tel.resLats {
		h.Reset()
	}
	tel.wakeLat.Reset()
	tel.vhostWake.Reset()

	rec := telemetry.New(tb.eng, sim.DurationOf(tb.spec.TelemetryWindow))
	tel.rec = rec
	vm := tb.vms[0]

	for i := 0; i < vmm.NumExitReasons; i++ {
		rec.Counter("es2_exits", "VM exits of the tested VM by reason.",
			[]telemetry.Label{{Key: "reason", Value: vmm.ExitReason(i).String()}},
			func() float64 { return float64(vm.Exits.Count(i)) })
	}
	guestSec := func() float64 { g, _ := vcpuTime(tb.vms[:1]); return g.Seconds() }
	modeSec := func() float64 { _, t := vcpuTime(tb.vms[:1]); return t.Seconds() }
	rec.Counter("es2_guest_seconds", "Guest-mode (VMX non-root) CPU seconds of the tested VM.",
		nil, guestSec)
	rec.Counter("es2_host_seconds", "Host-mode CPU seconds charged to the tested VM's vCPU threads.",
		nil, func() float64 { return modeSec() - guestSec() })
	rec.Fraction("es2_tig", "Time-in-guest fraction of the tested VM over the window.",
		nil, guestSec, modeSec)

	busySec := func() float64 { return tb.vhostBusy().Seconds() }
	rec.Counter("es2_vhost_busy_seconds", "CPU seconds consumed by all vhost I/O threads.",
		nil, busySec)
	if tb.spec.VhostCores > 0 {
		cores := float64(tb.spec.VhostCores)
		rec.Fraction("es2_vhost_busy", "Vhost core busy fraction over the window.",
			nil, busySec, func() float64 { return tb.eng.Now().Seconds() * cores })
	}
	rec.Counter("es2_dev_irqs", "Device interrupts delivered to the tested VM.",
		nil, func() float64 { return float64(vm.DevIRQDelivered.Value()) })
	if red := tb.es.Redirector; red != nil {
		rec.Counter("es2_irq_redirected", "Device interrupts redirected to an online vCPU.",
			nil, func() float64 { return float64(red.Redirected) })
		rec.Counter("es2_irq_kept_affinity", "Device interrupts that kept their configured affinity.",
			nil, func() float64 { return float64(red.KeptAffinity) })
		rec.Counter("es2_offline_predicts", "Redirector target choices predicted from the offline list.",
			nil, func() float64 { return float64(red.OfflinePredicts) })
		rec.Counter("es2_online_hits", "Redirector target choices satisfied from the online list.",
			nil, func() float64 { return float64(red.OnlineHits) })
	}
	rec.Counter("es2_tcp_retransmits", "TCP retransmission timeouts on both ends of the wire.",
		nil, func() float64 { return float64(tb.recoveries().retransmits) })

	for qi, d := range tb.devsByVM[0] {
		ql := []telemetry.Label{{Key: "queue", Value: fmt.Sprintf("%d", qi)}}
		rec.Gauge("es2_vq_avail", "TX descriptors awaiting vhost, sampled at window end.",
			ql, func() float64 { return float64(d.TXQ.AvailLen()) })
		rec.Gauge("es2_vq_used", "RX completions awaiting the guest driver, sampled at window end.",
			ql, func() float64 { return float64(d.RXQ.UsedLen()) })
		rec.Gauge("es2_vhost_backlog", "Packets queued inside the vhost device, sampled at window end.",
			ql, func() float64 { return float64(d.Backlog()) })
	}

	if inj := tb.inj; inj != nil {
		registerFaultSeries(rec, "Faults injected, by kind.",
			func() faults.Counters { return inj.Counters })
		for _, rc := range []struct {
			kind string
			get  func(recoveryCounts) uint64
		}{
			{"retransmit", func(c recoveryCounts) uint64 { return c.retransmits }},
			{"watchdog", func(c recoveryCounts) uint64 { return c.watchdogFires }},
			{"repoll", func(c recoveryCounts) uint64 { return c.rePolls }},
			{"pi_fallback", func(c recoveryCounts) uint64 { return c.piFallbacks }},
		} {
			rec.Counter("es2_recoveries", "Recovery-mechanism activations, by mechanism.",
				[]telemetry.Label{{Key: "kind", Value: rc.kind}},
				func() float64 { return float64(rc.get(tb.recoveries())) })
		}
		rec.Gauge("es2_pi_unavailable_vcpus", "vCPUs whose posted-interrupt descriptor is currently unavailable (active PI outage).",
			nil, func() float64 {
				n := 0
				for _, m := range tb.vms {
					for _, v := range m.VCPUs {
						if !v.PID.Available() {
							n++
						}
					}
				}
				return float64(n)
			})
	}

	rec.Histogram("es2_irq_delivery_latency_seconds",
		"Interrupt delivery latency, APIC injection to guest handler entry.",
		[]telemetry.Label{{Key: "path", Value: "posted"}}, tel.irqPosted)
	rec.Histogram("es2_irq_delivery_latency_seconds",
		"Interrupt delivery latency, APIC injection to guest handler entry.",
		[]telemetry.Label{{Key: "path", Value: "emulated"}}, tel.irqEmulated)
	for qi, h := range tel.resLats {
		rec.Histogram("es2_vq_residency_seconds",
			"TX descriptor residency, avail-publish to vhost dequeue.",
			[]telemetry.Label{{Key: "queue", Value: fmt.Sprintf("%d", qi)}}, h)
	}
	rec.Histogram("es2_vcpu_wakeup_seconds",
		"vCPU thread wakeup-to-run delay on the tested VM.",
		nil, tel.wakeLat)
	rec.Histogram("es2_vhost_wakeup_seconds",
		"vhost I/O thread wakeup-to-run delay.",
		nil, tel.vhostWake)

	registerSLOSeries(rec, tb.sloEval)

	rec.Start(end)
}

// registerFaultSeries registers the es2_faults_injected counters, one
// per fault kind, over the live tallies counters returns. Shared by the
// single-host and cluster telemetry paths, which differ only in the
// HELP text.
func registerFaultSeries(rec *telemetry.Recorder, help string, counters func() faults.Counters) {
	for _, fc := range []struct {
		kind string
		get  func(faults.Counters) uint64
	}{
		{"wire_drop", func(c faults.Counters) uint64 { return c.WireDrops }},
		{"wire_dup", func(c faults.Counters) uint64 { return c.WireDups }},
		{"lost_kick", func(c faults.Counters) uint64 { return c.LostKicks }},
		{"lost_signal", func(c faults.Counters) uint64 { return c.LostSignals }},
		{"vhost_stall", func(c faults.Counters) uint64 { return c.VhostStalls }},
		{"pi_outage", func(c faults.Counters) uint64 { return c.PIOutages }},
		{"preempt_storm", func(c faults.Counters) uint64 { return c.PreemptStorms }},
	} {
		rec.Counter("es2_faults_injected", help,
			[]telemetry.Label{{Key: "kind", Value: fc.kind}},
			func() float64 { return float64(fc.get(counters())) })
	}
}

// registerSLOSeries registers the live es2_slo_* series on a
// recorder: per-objective long-window burn rates (one gauge per
// rule), the number of rules currently firing, and cumulative
// fire/clear counters. Shared by the single-host and cluster
// telemetry paths; no-op when the run has no SLO evaluator.
func registerSLOSeries(rec *telemetry.Recorder, ev *slo.Evaluator) {
	if ev == nil {
		return
	}
	for i := 0; i < ev.NumObjectives(); i++ {
		name := ev.ObjectiveName(i)
		for ri := 0; ri < 2; ri++ {
			rec.Gauge("es2_slo_burn_rate", "Long-window error-budget burn rate, per objective and rule.",
				[]telemetry.Label{{Key: "objective", Value: name}, {Key: "rule", Value: ev.RuleName(ri)}},
				func() float64 { return ev.Burn(i, ri) })
		}
		rec.Gauge("es2_slo_alerts_active", "Burn-rate rules currently firing, per objective.",
			[]telemetry.Label{{Key: "objective", Value: name}},
			func() float64 { return float64(ev.Firing(i)) })
	}
	rec.Counter("es2_slo_alerts_fired", "SLO alert fire events across all objectives.",
		nil, ev.Fires)
	rec.Counter("es2_slo_alerts_cleared", "SLO alert clear events across all objectives.",
		nil, ev.Clears)
}

// fillTelemetry publishes the finalized recording into the result.
func (tb *testbed) fillTelemetry(r *Result) {
	tel := tb.tel
	r.TelemetryRecorder = tel.rec
	r.Telemetry = &TelemetryInfo{
		WindowMs: tb.spec.TelemetryWindow.Seconds() * 1e3,
		Windows:  len(tel.rec.Windows()),
		Series:   tel.rec.SeriesCount(),
	}
	r.LatencyProfiles = append(r.LatencyProfiles,
		latencyProfile("irq-delivery", "posted", tel.irqPosted),
		latencyProfile("irq-delivery", "emulated", tel.irqEmulated))
	for qi, h := range tel.resLats {
		r.LatencyProfiles = append(r.LatencyProfiles,
			latencyProfile("vq-residency", fmt.Sprintf("txq%d", qi), h))
	}
	r.LatencyProfiles = append(r.LatencyProfiles,
		latencyProfile("vcpu-wakeup", "", tel.wakeLat),
		latencyProfile("vhost-wakeup", "", tel.vhostWake))
}

func latencyProfile(class, label string, h *metrics.LogHistogram) LatencyProfile {
	return LatencyProfile{
		Class: class,
		Label: label,
		Count: h.Count(),
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.Quantile(0.5)),
		P90:   time.Duration(h.Quantile(0.9)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Max:   time.Duration(h.Max()),
	}
}
