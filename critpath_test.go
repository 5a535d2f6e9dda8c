package es2

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"es2/internal/vmm"
)

// critSpec is a fast ping scenario with the analyzer on.
func critSpec(cfg Config) ScenarioSpec {
	s := short(cfg, WorkloadSpec{Kind: Ping, PingInterval: time.Millisecond})
	s.CritPath = true
	return s
}

// TestCritPathOffByDefault: the analyzer adds nothing unless asked.
func TestCritPathOffByDefault(t *testing.T) {
	r, err := Run(short(Full(4), WorkloadSpec{Kind: Ping, PingInterval: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if r.CriticalPath != nil {
		t.Fatalf("CriticalPath non-nil without CritPath")
	}
}

// TestCritPathReconciliation checks the analyzer against the
// independently measured latency figures: per-request stage sums match
// the end-to-end latency to well under the 0.1% acceptance bound, the
// aggregate blame sums to the total, and the slowest exemplar is
// exactly the histogram's exact maximum.
func TestCritPathReconciliation(t *testing.T) {
	for _, cfg := range []Config{Baseline(), PIOnly(), Full(4)} {
		r, err := Run(critSpec(cfg))
		if err != nil {
			t.Fatal(err)
		}
		cp := r.CriticalPath
		if cp == nil || cp.Requests == 0 {
			t.Fatalf("%v: empty critical-path report", cfg)
		}
		if cp.MaxSumRelErr > 0.001 {
			t.Errorf("%v: MaxSumRelErr = %g > 0.001", cfg, cp.MaxSumRelErr)
		}
		var stageSum int64
		for _, s := range cp.Stages {
			stageSum += s.TotalNs
		}
		if stageSum != cp.TotalNs {
			t.Errorf("%v: stage totals sum to %d, e2e total %d", cfg, stageSum, cp.TotalNs)
		}
		if len(cp.Exemplars) == 0 {
			t.Fatalf("%v: no exemplars", cfg)
		}
		if cp.Exemplars[0].E2ENs != cp.MaxNs {
			t.Errorf("%v: slowest exemplar %dns != report max %dns", cfg, cp.Exemplars[0].E2ENs, cp.MaxNs)
		}
		// The ping histogram tracks the exact max of the same request
		// population, so the spectrum max and the exemplar max agree.
		if got, want := time.Duration(cp.MaxNs), r.MaxLatency; got != want {
			t.Errorf("%v: exemplar max %v != measured MaxLatency %v", cfg, got, want)
		}
		if got, want := time.Duration(cp.MeanNs), r.MeanLatency; got != want {
			t.Errorf("%v: critpath mean %v != measured mean %v", cfg, got, want)
		}
		for _, ex := range cp.Exemplars {
			var durSum int64
			for _, m := range ex.Marks {
				durSum += m.DurNs
			}
			if durSum != ex.E2ENs {
				t.Errorf("%v: exemplar flow %d seq %d: marks sum %d != e2e %d",
					cfg, ex.Flow, ex.Seq, durSum, ex.E2ENs)
			}
		}
	}
}

// TestCritPathMechanismStages: the interrupt-delivery stage is named
// for the mechanism that delivered it, so the blame profile itself
// shows which path ran.
func TestCritPathMechanismStages(t *testing.T) {
	counts := func(cfg Config) (posted, emulated uint64) {
		r, err := Run(critSpec(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range r.CriticalPath.Stages {
			switch s.Stage {
			case "irq-posted":
				posted = s.Count
			case "irq-emulated":
				emulated = s.Count
			}
		}
		return
	}
	if posted, emulated := counts(Baseline()); posted != 0 || emulated == 0 {
		t.Errorf("Baseline: posted=%d emulated=%d, want only emulated", posted, emulated)
	}
	if posted, emulated := counts(PIOnly()); posted == 0 || emulated != 0 {
		t.Errorf("PIOnly: posted=%d emulated=%d, want only posted", posted, emulated)
	}
}

// TestCritPathByteIdenticalReplay: the serialized blame profile,
// exemplars and what-if grid replay byte-identically — including a
// faulted run with telemetry, profiling and the invariant checker on,
// the configuration most likely to perturb event order.
func TestCritPathByteIdenticalReplay(t *testing.T) {
	spec := critSpec(PIOnly())
	spec.Telemetry = true
	spec.CPUProfile = true
	spec.Check = true
	spec.Faults = FaultSpec{
		LostKickProb:  0.05,
		PIOutageEvery: 40 * time.Millisecond,
		PIOutage:      10 * time.Millisecond,
	}
	run := func() []byte {
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r.CriticalPath)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("critical-path JSON differs across replays:\n%s\n---\n%s", a, b)
	}
}

// TestCritPathFaultBlameShift: faults move blame onto the recovery
// path. A PI outage forces emulated delivery on a PI configuration;
// lost kicks stretch the notification stage until the TX watchdog
// recovers the descriptor.
func TestCritPathFaultBlameShift(t *testing.T) {
	stage := func(cp *CriticalPath, name string) *CriticalPathStage {
		for i := range cp.Stages {
			if cp.Stages[i].Stage == name {
				return &cp.Stages[i]
			}
		}
		return nil
	}

	outage := critSpec(PIOnly())
	outage.Faults = FaultSpec{PIOutageEvery: 30 * time.Millisecond, PIOutage: 15 * time.Millisecond}
	r, err := Run(outage)
	if err != nil {
		t.Fatal(err)
	}
	if em := stage(r.CriticalPath, "irq-emulated"); em == nil || em.Count == 0 {
		t.Errorf("PI outage: no irq-emulated traversals (blame did not shift to fallback)")
	}

	clean, err := Run(critSpec(Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	kicks := critSpec(Baseline())
	kicks.Faults = FaultSpec{LostKickProb: 0.2}
	faulted, err := Run(kicks)
	if err != nil {
		t.Fatal(err)
	}
	cn, fn := stage(clean.CriticalPath, "notify-exit"), stage(faulted.CriticalPath, "notify-exit")
	if cn == nil || fn == nil {
		t.Fatal("notify-exit stage missing")
	}
	if fn.MeanNs <= cn.MeanNs {
		t.Errorf("lost kicks: notify-exit mean %v not above clean %v",
			time.Duration(fn.MeanNs), time.Duration(cn.MeanNs))
	}
}

// TestCritPathWhatIfDirectional validates the Coz-style estimator
// against an actual mechanism change: halving the interrupt-delivery
// costs in the hypervisor cost model must move the measured latency in
// the direction (and to roughly the magnitude) the estimator predicted
// from the unmodified run alone.
func TestCritPathWhatIfDirectional(t *testing.T) {
	base := critSpec(Baseline())
	r0, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var pred *CriticalPathWhatIf
	for i := range r0.CriticalPath.WhatIf {
		if r0.CriticalPath.WhatIf[i].Stage == "irq-emulated" {
			pred = &r0.CriticalPath.WhatIf[i]
		}
	}
	if pred == nil {
		t.Fatal("no what-if row for irq-emulated")
	}
	if pred.P50DeltaNs >= 0 || pred.MeanDeltaNs >= 0 {
		t.Fatalf("predicted deltas not negative: p50 %d mean %d", pred.P50DeltaNs, pred.MeanDeltaNs)
	}

	// Actually speed the delivery stage up: halve the exit and IPI
	// costs that compose emulated delivery, and rerun.
	costs := vmm.DefaultCosts()
	costs.ExtIntrExit /= 2
	costs.IPILatency /= 2
	fast := base
	fast.testCosts = &costs
	r1, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	actual := r1.CriticalPath.P50Ns - r0.CriticalPath.P50Ns
	if actual >= 0 {
		t.Fatalf("halved delivery costs did not reduce p50: delta %d", actual)
	}
	// Direction agrees; the magnitudes need not be equal (the stage
	// includes pipeline costs the knobs do not touch), but the
	// prediction must not point at a change an order of magnitude away.
	if pred.P50DeltaNs < 4*actual {
		t.Errorf("prediction %v wildly overshoots actual %v",
			time.Duration(pred.P50DeltaNs), time.Duration(actual))
	}
}

// TestCritPathMemcachedReconciles: the RPC-style workload (server in
// the guest, chains opened at the peer client) reconciles too.
func TestCritPathMemcachedReconciles(t *testing.T) {
	s := short(Full(4), WorkloadSpec{Kind: Memcached})
	s.CritPath = true
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	cp := r.CriticalPath
	if cp == nil || cp.Requests == 0 {
		t.Fatal("empty report")
	}
	if cp.MaxSumRelErr > 0.001 {
		t.Errorf("MaxSumRelErr = %g > 0.001", cp.MaxSumRelErr)
	}
	if got, want := time.Duration(cp.MaxNs), r.MaxLatency; got != want {
		t.Errorf("exemplar max %v != measured MaxLatency %v", got, want)
	}
	// The guest server must contribute a visible service stage.
	var service int64
	for _, st := range cp.Stages {
		if st.Stage == "service" {
			service = st.TotalNs
		}
	}
	if service == 0 {
		t.Error("no service-stage contribution from the guest server")
	}
}

// TestCritPathCluster: the rack-wide analyzer labels blame per host,
// the host split reconciles with the aggregate, chains cross the
// fabric, and the whole report replays byte-identically.
func TestCritPathCluster(t *testing.T) {
	spec := smallCluster(Full(4))
	spec.CritPath = true
	run := func() *ClusterResult {
		r, err := RunCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := run()
	cp := r.CriticalPath
	if cp == nil || cp.Requests == 0 {
		t.Fatal("empty cluster critical-path report")
	}
	if cp.MaxSumRelErr > 0.001 {
		t.Errorf("MaxSumRelErr = %g > 0.001", cp.MaxSumRelErr)
	}
	if len(cp.HostStages) == 0 {
		t.Fatal("no per-host blame rows")
	}
	hosts := map[string]bool{}
	var hostSum, stageSum int64
	for _, s := range cp.HostStages {
		if s.Host == "" {
			t.Fatalf("host label missing on %q", s.Stage)
		}
		hosts[s.Host] = true
		hostSum += s.TotalNs
	}
	for _, s := range cp.Stages {
		stageSum += s.TotalNs
	}
	// Every stage nanosecond is attributed to exactly one host (wire
	// transit is charged to the receiving host's NIC), so the host
	// split telescopes to the aggregate exactly.
	if hostSum != stageSum {
		t.Errorf("host split %d != aggregate %d", hostSum, stageSum)
	}
	for _, h := range []string{"h0", "h1"} {
		if !hosts[h] {
			t.Errorf("no blame rows for host %s (got %v)", h, hosts)
		}
	}
	if len(cp.Exemplars) == 0 || cp.Exemplars[0].FabricHops == 0 {
		t.Error("slowest exemplar crossed no fabric hops; cluster RPCs must")
	}

	a, _ := json.Marshal(cp)
	b, _ := json.Marshal(run().CriticalPath)
	if !bytes.Equal(a, b) {
		t.Fatal("cluster critical-path JSON differs across replays")
	}
}
