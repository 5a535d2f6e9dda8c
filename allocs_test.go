package es2_test

import (
	"runtime"
	"testing"
	"time"

	"es2"
	"es2/experiments"
)

// maxAllocsPerEvent bounds the heap allocations per fired event of a
// steady-state run: packets come from per-kernel and per-peer pools,
// request headers ride in the packet by value, and per-request
// callbacks are bound once per flow, worker or stream, so what is left
// is one-time growth of pools, rings and maps.
const maxAllocsPerEvent = 0.1

// TestEventPathAllocs runs golden-size scenarios of every workload
// whose event path is meant to allocate nothing, plus both racks
// scaled down 16×, and bounds Mallocs/EventsFired from the engine
// report. Apache and Httperf open a connection per request and
// allocate per-connection state by design; Ping fires too few events
// per window for one-time growth not to dominate.
func TestEventPathAllocs(t *testing.T) {
	// The invariant checker's sweeps allocate; the bound is the
	// model's own.
	t.Setenv("ES2_CHECK", "")
	check := func(name string, mallocs, events uint64) {
		t.Helper()
		per := float64(mallocs) / float64(events)
		t.Logf("%s: %d allocations over %d events = %.4f per event", name, mallocs, events, per)
		if per >= maxAllocsPerEvent {
			t.Errorf("%s: %d allocations over %d events = %.3f per event, want < %g",
				name, mallocs, events, per, maxAllocsPerEvent)
		}
	}

	var single []es2.ScenarioSpec
	for _, c := range []struct {
		name string
		cfg  es2.Config
	}{{"baseline", es2.Baseline()}, {"full", es2.Full(4)}} {
		for _, w := range []es2.WorkloadSpec{
			{Kind: es2.NetperfTCPSend},
			{Kind: es2.NetperfTCPRecv},
			{Kind: es2.NetperfUDPSend, MsgBytes: 256},
			{Kind: es2.NetperfUDPRecv, MsgBytes: 256},
			{Kind: es2.Memcached},
		} {
			single = append(single, goldenSpec(c.name+"/"+w.Kind.String(), c.cfg, w))
		}
		load := goldenSpec(c.name+"/memcached-openloop", c.cfg, es2.WorkloadSpec{Kind: es2.Memcached})
		load.VCPUs = 2
		load.Load = es2.LoadSpec{
			Classes: []es2.LoadClass{
				{Name: "web", Streams: 6, RatePerSec: 4000, ZipfS: 1.0,
					Process: "weibull", Shape: 0.7, MaxOutstanding: 32},
			},
			Profile: es2.LoadProfile{Phases: []es2.LoadPhase{
				{Name: "low", Start: 0, Multiplier: 0.5},
				{Name: "high", Start: 12 * time.Hour, Multiplier: 1.5},
			}},
		}
		single = append(single, load)
	}
	// One scenario at a time: the report's memory figures are
	// process-wide.
	for _, spec := range single {
		spec.EngineStats = true
		r, err := es2.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		check(spec.Name, r.EngineReport.Mallocs, r.EngineReport.EventsFired)
	}
	for _, e := range []experiments.ClusterExperiment{
		experiments.ScaleCluster(experiments.Rack1(), 16),
		experiments.ScaleCluster(experiments.Daycycle(), 16),
	} {
		for _, spec := range e.Specs {
			spec.EngineStats = true
			r, err := es2.RunCluster(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			check(spec.Name, r.EngineReport.Mallocs, r.EngineReport.EventsFired)
		}
	}
}

// maxSetupBytes bounds the bytes one full-scale daycycle config
// allocates when its windows are 1ns, so that the run is testbed
// assembly, 2ns of simulation and result assembly. Each config
// measures about 280KB (go1.24, amd64); the bound leaves headroom for
// other Go versions' allocation sizes.
const maxSetupBytes = 512 << 10

// maxRackSetupBytes is maxSetupBytes for a full-scale rack1 config.
// Each measures about 0.70MB, most of it in what its 2,048 flows hold.
// The bound leaves about 30% headroom, and a config whose flows each
// carried their request sizes and deadline state, and whose VMs each
// held a 2KB vector table, would cross it (0.97MB).
const maxRackSetupBytes = 896 << 10

// setupBytes runs spec with 1ns windows and returns the bytes the run
// allocated.
func setupBytes(t *testing.T, spec es2.ClusterSpec) uint64 {
	t.Helper()
	spec.Warmup, spec.Duration = 1, 1
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := es2.RunCluster(spec); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestSetupAllocBytes builds every config of the full-scale daycycle
// and rack1 racks with 1ns windows and bounds what each build
// allocates: set-up memory should grow with what a testbed holds, not
// with its ring sizes or its number of histograms.
func TestSetupAllocBytes(t *testing.T) {
	t.Setenv("ES2_CHECK", "")
	for _, rack := range []struct {
		e   experiments.ClusterExperiment
		max uint64
	}{
		{experiments.Daycycle(), maxSetupBytes},
		{experiments.Rack1(), maxRackSetupBytes},
	} {
		for _, spec := range rack.e.Specs {
			got := setupBytes(t, spec)
			t.Logf("%s: set-up allocated %d bytes", spec.Name, got)
			if got >= rack.max {
				t.Errorf("%s: set-up allocated %d bytes, want < %d", spec.Name, got, rack.max)
			}
		}
	}
}

// TestRackSetupLinearInFlows builds rack1's PI+H+R config at 4, 8 and
// 16 hosts, half of them clients, with 1,024 and with 4,096 flows, and
// takes the set-up bytes each added flow costs. A flow's route, its
// client state and its guest flow entry are the same size whatever the
// rack, so the cost per flow must not grow with the host count: a
// table per host indexed by flow id would add a pointer per flow per
// host.
func TestRackSetupLinearInFlows(t *testing.T) {
	t.Setenv("ES2_CHECK", "")
	specs := experiments.Rack1().Specs
	base := specs[len(specs)-1]
	const lo, hi = 1024, 4096
	var perFlow []float64
	for _, hosts := range []int{4, 8, 16} {
		spec := base
		spec.Hosts, spec.ClientHosts = hosts, hosts/2
		spec.Workload.Flows = lo
		small := setupBytes(t, spec)
		spec.Workload.Flows = hi
		large := setupBytes(t, spec)
		per := (float64(large) - float64(small)) / (hi - lo)
		t.Logf("%d hosts: set-up allocated %d bytes at %d flows, %d at %d: %.0f bytes per added flow",
			hosts, small, lo, large, hi, per)
		perFlow = append(perFlow, per)
	}
	// Allocation size classes and map growth steps round differently
	// at each size, so allow the cost a few percent of drift.
	if perFlow[2] > 1.05*perFlow[0] {
		t.Errorf("set-up bytes per added flow grow with the host count: %.0f at 4 hosts, %.0f at 8, %.0f at 16",
			perFlow[0], perFlow[1], perFlow[2])
	}
}
