package es2

// Engine self-observability: the wall-clock performance collector must
// never perturb the simulation (byte-identical Result JSON with stats
// on or off, including faulted and chaotic runs), and must produce a
// sane EngineReport. What it costs is measured by the benchmark module
// (obs.engine_stats.overhead), not asserted here.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// marshalResult renders the deterministic JSON surface of a result.
func marshalResult(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEngineStatsNonPerturbing(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: Memcached})
	spec.Faults = FaultSpec{LostKickProb: 0.05, PacketLossProb: 0.01}

	off := mustRun(t, spec)
	on := spec
	on.EngineStats = true
	onRes := mustRun(t, on)

	if onRes.EngineReport == nil {
		t.Fatalf("EngineStats run has no EngineReport")
	}
	if off.EngineReport != nil {
		t.Fatalf("stats-off run has an EngineReport")
	}
	// Clearing the report must make the structs identical; the JSON
	// surface must be byte-identical even without clearing, because the
	// report is excluded from it.
	if !bytes.Equal(marshalResult(t, off), marshalResult(t, onRes)) {
		t.Fatalf("Result JSON differs with engine stats enabled")
	}
}

func TestEngineStatsClusterNonPerturbing(t *testing.T) {
	spec := chaosClusterSpec()
	spec.Faults = FaultSpec{LostKickProb: 0.02}

	off, err := RunCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	on := spec
	on.EngineStats = true
	onRes, err := RunCluster(on)
	if err != nil {
		t.Fatal(err)
	}
	if onRes.EngineReport == nil {
		t.Fatalf("EngineStats cluster run has no EngineReport")
	}
	if !bytes.Equal(marshalResult(t, off), marshalResult(t, onRes)) {
		t.Fatalf("ClusterResult JSON differs with engine stats enabled")
	}
}

func TestEngineReportContents(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.EngineStats = true
	r := mustRun(t, spec)
	er := r.EngineReport
	if er == nil {
		t.Fatalf("no EngineReport")
	}
	if er.WallNs <= 0 || er.EventsFired == 0 || er.EventsPerSec <= 0 {
		t.Fatalf("rates not populated: wall=%d fired=%d eps=%g", er.WallNs, er.EventsFired, er.EventsPerSec)
	}
	wantSim := (spec.Warmup + spec.Duration).Seconds()
	if er.SimSeconds != wantSim {
		t.Fatalf("SimSeconds = %g, want %g", er.SimSeconds, wantSim)
	}
	if er.SampleN != DefaultEngineStatsSampleN {
		t.Fatalf("SampleN = %d, want default %d", er.SampleN, DefaultEngineStatsSampleN)
	}
	if er.Heap.Pushes == 0 || er.Heap.Pops == 0 || er.Heap.MaxDepth <= 0 || er.Heap.MeanDepth <= 0 {
		t.Fatalf("heap stats not populated: %+v", er.Heap)
	}
	// Every pushed event fired, was cancelled or is still queued, and
	// every pop fired its event.
	if h := er.Heap; h.Pushes != h.Pops+h.Cancels+uint64(h.Pending) {
		t.Fatalf("pushes != pops + cancels + pending: %+v", h)
	}
	if er.Heap.Pops != er.EventsFired {
		t.Fatalf("pops %d != events fired %d", er.Heap.Pops, er.EventsFired)
	}
	if er.Heap.Moves == 0 {
		t.Fatalf("no moves counted; a requery re-keys its chunk timer: %+v", er.Heap)
	}
	if er.Ticks == 0 || len(er.EventsPerTick) == 0 {
		t.Fatalf("tick distribution empty: ticks=%d buckets=%d", er.Ticks, len(er.EventsPerTick))
	}
	var bucketTicks uint64
	for _, b := range er.EventsPerTick {
		bucketTicks += b.Ticks
	}
	if bucketTicks != er.Ticks {
		t.Fatalf("events-per-tick buckets sum to %d, want %d", bucketTicks, er.Ticks)
	}
	// The scheduler's chunk and slice timers schedule most events, and
	// the wire's deliveries go through netsim's sim.DelayLine.
	requireSubsystems(t, er, "sched", "netsim")
	if er.AllocBytes == 0 || er.Mallocs == 0 {
		t.Fatalf("memstats deltas not populated: %+v", er)
	}
	if er.Render() == "" {
		t.Fatalf("empty Render")
	}
}

// requireSubsystems checks that every sampled subsystem row is sane and
// that the named packages have rows. A missing row means SampleSite's
// caller walk is charging the package's events to the engine itself:
// sim.Engine.At must stay SampleSite's direct caller, and the walk must
// skip sim's own wrappers such as sim.DelayLine.
func requireSubsystems(t *testing.T, er *EngineReport, names ...string) {
	t.Helper()
	if er.SampledEvents == 0 || len(er.Subsystems) == 0 {
		t.Fatalf("no sampled subsystem attribution: sampled=%d rows=%d", er.SampledEvents, len(er.Subsystems))
	}
	rows := make(map[string]bool)
	for _, row := range er.Subsystems {
		if row.Name == "" || row.Samples == 0 {
			t.Fatalf("degenerate subsystem row: %+v", row)
		}
		rows[row.Name] = true
	}
	for _, name := range names {
		if !rows[name] {
			t.Fatalf("no %s row in subsystem attribution: %+v", name, er.Subsystems)
		}
	}
}

// TestEngineReportClusterAttribution is the cluster counterpart of the
// attribution check above: the switch's deliveries go through the
// fabric's sim.DelayLine and must still be charged to fabric.
func TestEngineReportClusterAttribution(t *testing.T) {
	spec := smallCluster(Full(4))
	spec.EngineStats = true
	res, err := RunCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineReport == nil {
		t.Fatalf("no EngineReport")
	}
	requireSubsystems(t, res.EngineReport, "sched", "fabric")
}
