package es2

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// faultedSpec is a scenario with every fault class firing at once, used
// by the determinism and checker tests.
func faultedSpec() ScenarioSpec {
	s := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	s.Warmup = 50 * time.Millisecond
	s.Duration = 150 * time.Millisecond
	s.VCPUs, s.VMCores, s.VhostCores = 2, 2, 1
	s.Faults = FaultSpec{
		PacketLossProb:    0.01,
		PacketDupProb:     0.005,
		LostKickProb:      0.02,
		LostSignalProb:    0.02,
		VhostStallEvery:   5 * time.Millisecond,
		VhostStall:        200 * time.Microsecond,
		PIOutageEvery:     10 * time.Millisecond,
		PIOutage:          time.Millisecond,
		PreemptStormEvery: 20 * time.Millisecond,
		PreemptStorm:      500 * time.Microsecond,
	}
	return s
}

// TestFaultedRunDeterministic is the replay guarantee: the same faulted
// spec and seed produce byte-identical results and timelines.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		s := faultedSpec()
		s.Timeline = true
		s.Check = true
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil || res.Faults.Injected == 0 {
			t.Fatal("fault report empty; the spec should inject across the window")
		}
		rj, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var tl bytes.Buffer
		if err := res.Timeline.WriteJSON(&tl); err != nil {
			t.Fatal(err)
		}
		return rj, tl.Bytes()
	}
	r1, t1 := run()
	r2, t2 := run()
	if !bytes.Equal(r1, r2) {
		t.Errorf("results differ between identical faulted runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("timelines differ between identical faulted runs")
	}
}

// TestLostKickRecovery is the headline robustness scenario: a
// window-limited TCP sender whose kicks are lost 10% of the time
// deadlocks permanently without recovery (the last kick before the
// window closes is lost, the segments are never processed, so the ACK
// that would reopen the window never comes), but the vhost re-poll
// brings throughput back to at least 90% of the fault-free run. Run
// with and without ES2 hybrid kick polling.
func TestLostKickRecovery(t *testing.T) {
	for _, cfg := range []Config{PIOnly(), PIH(4)} {
		base := short(cfg, WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024, Window: 4})
		base.Warmup = 100 * time.Millisecond
		base.Duration = 300 * time.Millisecond

		clean, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}

		faulted := base
		faulted.Faults = FaultSpec{LostKickProb: 0.1}
		rec, err := Run(faulted)
		if err != nil {
			t.Fatal(err)
		}

		noRec := faulted
		noRec.Faults.NoRecovery = true
		dead, err := Run(noRec)
		if err != nil {
			t.Fatal(err)
		}

		t.Logf("%s: clean=%.0f recovered=%.0f (lost=%d repolls=%d) norecovery=%.0f Mbps",
			cfg, clean.ThroughputMbps, rec.ThroughputMbps,
			rec.Faults.LostKicks, rec.Faults.VhostRePolls, dead.ThroughputMbps)
		if rec.Faults.LostKicks == 0 {
			t.Errorf("%s: no kicks were lost at p=0.1", cfg)
		}
		if rec.Faults.VhostRePolls == 0 {
			t.Errorf("%s: the vhost re-poll never recovered a lost kick", cfg)
		}
		if rec.ThroughputMbps < 0.9*clean.ThroughputMbps {
			t.Errorf("%s: recovered throughput %.0f < 90%% of clean %.0f Mbps",
				cfg, rec.ThroughputMbps, clean.ThroughputMbps)
		}
		if dead.ThroughputMbps > 0.5*clean.ThroughputMbps {
			t.Errorf("%s: without recovery expected collapse, got %.0f of %.0f Mbps",
				cfg, dead.ThroughputMbps, clean.ThroughputMbps)
		}
	}
}

// TestPIOutageFallback exercises ES2 graceful degradation: while a
// vCPU's posted-interrupt facility is down, deliveries fall back to the
// emulated path; when it recovers, the posted path resumes. The path
// breakdown must attribute both mechanisms.
func TestPIOutageFallback(t *testing.T) {
	s := short(Full(8), WorkloadSpec{Kind: NetperfUDPRecv, MsgBytes: 1024, UDPRatePPS: 100_000})
	s.Warmup = 100 * time.Millisecond
	s.Duration = 300 * time.Millisecond
	s.PathTrace = true
	s.Faults = FaultSpec{PIOutageEvery: 3 * time.Millisecond, PIOutage: 2 * time.Millisecond}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.PIOutages == 0 {
		t.Fatal("no PI outages injected")
	}
	if res.Faults.PIFallbacks == 0 {
		t.Error("no posted->emulated fallbacks despite PI outages")
	}
	// The interrupt stages carry the delivery-mechanism attribution:
	// emulated injections during outages, posted ones between them.
	var emulated, posted uint64
	for _, st := range res.PathBreakdown {
		switch st.Stage {
		case "irq-emulated":
			emulated += st.Count
		case "irq-posted":
			posted += st.Count
		}
	}
	t.Logf("irq: emulated=%d posted=%d fallbacks=%d outages=%d",
		emulated, posted, res.Faults.PIFallbacks, res.Faults.PIOutages)
	if emulated == 0 {
		t.Error("path breakdown shows no emulated interrupts during outages")
	}
	if posted == 0 {
		t.Error("path breakdown shows no posted interrupts between outages")
	}
}

// TestPacketLossRetransmit checks transport recovery in both stream
// directions: wire loss triggers retransmission timeouts and the
// connection keeps making progress.
func TestPacketLossRetransmit(t *testing.T) {
	for _, kind := range []WorkloadKind{NetperfTCPSend, NetperfTCPRecv} {
		s := short(PIOnly(), WorkloadSpec{Kind: kind, MsgBytes: 1024})
		s.Warmup = 100 * time.Millisecond
		s.Duration = 300 * time.Millisecond
		s.Faults = FaultSpec{PacketLossProb: 0.02}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v: %.0f Mbps, drops=%d retransmits=%d",
			kind, res.ThroughputMbps, res.Faults.WireDrops, res.Faults.Retransmits)
		if res.Faults.WireDrops == 0 {
			t.Errorf("%v: no wire drops at p=0.02", kind)
		}
		if res.Faults.Retransmits == 0 {
			t.Errorf("%v: loss never triggered a retransmission timeout", kind)
		}
		if res.ThroughputMbps <= 0 {
			t.Errorf("%v: stream made no progress under 2%% loss", kind)
		}
	}
}

// TestCheckerRunsUnderFaults asserts the invariant checker actually
// sweeps (and therefore would catch violations) in the harshest
// scenario we can configure.
func TestCheckerRunsUnderFaults(t *testing.T) {
	s := faultedSpec()
	s.Check = true
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.InvariantChecks == 0 {
		t.Fatal("invariant checker never ticked despite Check: true")
	}
}

// TestRunRejectsInvalidSpecs: every malformed spec must surface as an
// error from Run (and from the exported Validate), never as a panic.
func TestRunRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec ScenarioSpec
	}{
		{"too many VMs", ScenarioSpec{VMs: 1000}},
		{"too many vCPUs", ScenarioSpec{VCPUs: 1000, VMCores: 32}},
		{"overcommit", ScenarioSpec{VCPUs: 32, VMCores: 1}},
		{"sidecore+hybrid", ScenarioSpec{Sidecore: true, Config: Config{Hybrid: true, Quota: 4}}},
		{"bad kind", ScenarioSpec{Workload: WorkloadSpec{Kind: WorkloadKind(99)}}},
		{"negative coalesce", ScenarioSpec{CoalesceCount: -1}},
		{"huge msg", ScenarioSpec{Workload: WorkloadSpec{MsgBytes: 1 << 30}}},
		{"NaN rate", ScenarioSpec{Workload: WorkloadSpec{Kind: NetperfUDPSend, UDPRatePPS: math.NaN()}}},
		{"Inf rate", ScenarioSpec{Workload: WorkloadSpec{Kind: NetperfUDPSend, SendRatePPS: math.Inf(1)}}},
		{"bad fault prob", ScenarioSpec{Faults: FaultSpec{PacketLossProb: 1.5}}},
		{"fault pair missing", ScenarioSpec{Faults: FaultSpec{VhostStallEvery: time.Millisecond}}},
		{"storm core range", ScenarioSpec{VCPUs: 1, Faults: FaultSpec{
			PreemptStormEvery: time.Millisecond, PreemptStorm: time.Microsecond, StormCores: []int{99}}}},
		{"huge duration", ScenarioSpec{Duration: 48 * time.Hour}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", c.name)
		}
		res, err := Run(c.spec)
		if err == nil {
			t.Errorf("%s: Run accepted the spec", c.name)
		}
		if res != nil {
			t.Errorf("%s: Run returned a result alongside the error", c.name)
		}
		var se *SpecError
		if !errorsAs(err, &se) {
			t.Errorf("%s: error %v is not a *SpecError", c.name, err)
		}
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **SpecError) bool {
	se, ok := err.(*SpecError)
	if ok {
		*target = se
	}
	return ok
}
