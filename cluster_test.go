package es2

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"es2/internal/sim"
)

// smallCluster is a fast three-host rack (one client host, two server
// hosts) for functional tests.
func smallCluster(cfg Config) ClusterSpec {
	return ClusterSpec{
		Name:        "smoke",
		Seed:        7,
		Config:      cfg,
		Hosts:       3,
		ClientHosts: 1,
		VMsPerHost:  2,
		Workload:    ClusterWorkloadSpec{Flows: 64},
		Warmup:      20 * time.Millisecond,
		Duration:    50 * time.Millisecond,
	}
}

func TestClusterSmoke(t *testing.T) {
	res, err := RunCluster(smallCluster(Full(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 3 || res.VMs != 6 || res.Flows != 64 {
		t.Fatalf("topology = %d hosts / %d VMs / %d flows, want 3/6/64",
			res.Hosts, res.VMs, res.Flows)
	}
	if len(res.PerHost) != 3 {
		t.Fatalf("PerHost has %d entries, want 3", len(res.PerHost))
	}
	for i, hr := range res.PerHost {
		want := fmt.Sprintf("smoke/h%d", i)
		if hr.Name != want {
			t.Errorf("PerHost[%d].Name = %q, want %q", i, hr.Name, want)
		}
		if hr.TotalExitRate <= 0 {
			t.Errorf("host %d shows no exits; its VMs should be running I/O", i)
		}
	}
	// Host 0 is the only client host: RPC metrics live there and only
	// there.
	if res.PerHost[0].OpsPerSec <= 0 {
		t.Error("client host reports no completed RPCs")
	}
	if res.PerHost[1].OpsPerSec != 0 || res.PerHost[2].OpsPerSec != 0 {
		t.Error("server hosts should not report client-side RPC rates")
	}
	if res.Aggregate.OpsPerSec != res.PerHost[0].OpsPerSec {
		t.Error("aggregate RPC rate should equal the sum over client hosts")
	}
	if res.Aggregate.P99Latency <= 0 {
		t.Error("aggregate latency spectrum is empty")
	}
	if res.Fabric == nil || res.Fabric.Forwarded == 0 {
		t.Fatal("fabric forwarded nothing; all RPC traffic crosses the switch")
	}
	if res.Fabric.RouteDrops != 0 {
		t.Errorf("fabric dropped %d frames for lack of a route; the flow table should cover all flows",
			res.Fabric.RouteDrops)
	}
	if res.FlowFairness == nil || res.FlowFairness.Flows != 64 {
		t.Fatalf("flow fairness = %+v, want all 64 flows completing", res.FlowFairness)
	}
	if ff := res.FlowFairness; ff.MinMean > ff.MaxMean || ff.MaxMean > ff.MaxMax {
		t.Errorf("fairness ordering violated: %+v", ff)
	}
}

// TestClusterUplinkContention: making the shared backplane the
// bottleneck must show up as uplink utilization and reduced throughput
// versus a non-blocking switch.
func TestClusterUplinkContention(t *testing.T) {
	free := smallCluster(Baseline())
	free.Workload.RespBytes = 8192
	constrained := free
	constrained.Fabric.UplinkGbps = 0.5

	rf, err := RunCluster(free)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RunCluster(constrained)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Fabric.UplinkUtilization < 0.5 {
		t.Errorf("uplink utilization = %.2f; a 0.5 Gb/s backplane should be busy",
			rc.Fabric.UplinkUtilization)
	}
	if rf.Fabric.UplinkUtilization != 0 {
		t.Errorf("non-blocking switch reports uplink utilization %.2f, want 0",
			rf.Fabric.UplinkUtilization)
	}
	if rc.Aggregate.ThroughputMbps >= rf.Aggregate.ThroughputMbps {
		t.Errorf("constrained uplink (%.0f Mb/s) should deliver less than non-blocking (%.0f Mb/s)",
			rc.Aggregate.ThroughputMbps, rf.Aggregate.ThroughputMbps)
	}
}

// faultedClusterSpec enables every observability and fault subsystem at
// once, the strongest replay claim the cluster runner makes.
func faultedClusterSpec() ClusterSpec {
	s := smallCluster(Full(4))
	s.Name = "faulted"
	s.Seed = 23
	s.Telemetry = true
	s.TelemetryWindow = 5 * time.Millisecond
	s.CPUProfile = true
	s.PathTrace = true
	s.Check = true
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

// TestClusterDeterministicReplay is the cluster replay guarantee: the
// same spec and seed produce byte-identical JSON results and
// OpenMetrics exports, with telemetry, profiling, tracing, checking and
// fault injection all enabled.
func TestClusterDeterministicReplay(t *testing.T) {
	run := func() ([]byte, []byte) {
		res, err := RunCluster(faultedClusterSpec())
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults == nil || res.Faults.Injected == 0 {
			t.Fatal("fault report empty; the spec should inject across the window")
		}
		if res.InvariantChecks == 0 {
			t.Fatal("invariant checker never ran")
		}
		rj, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var om bytes.Buffer
		if err := res.TelemetryRecorder.WriteOpenMetrics(&om); err != nil {
			t.Fatal(err)
		}
		return rj, om.Bytes()
	}
	r1, o1 := run()
	r2, o2 := run()
	if !bytes.Equal(r1, r2) {
		t.Errorf("results differ between identical cluster runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(o1, o2) {
		t.Error("OpenMetrics exports differ between identical cluster runs")
	}
}

// TestClusterTelemetryAndProfiles: the optional subsystems must surface
// in the result the same way the single-host runner surfaces them.
func TestClusterTelemetryAndProfiles(t *testing.T) {
	res, err := RunCluster(faultedClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || res.Telemetry.Windows == 0 || res.Telemetry.Series == 0 {
		t.Fatalf("telemetry info = %+v, want recorded windows and series", res.Telemetry)
	}
	// RPC latency profiles: one per client host plus the cluster-wide
	// spectrum, on the aggregate.
	var rpcProfiles int
	for _, lp := range res.Aggregate.LatencyProfiles {
		if lp.Class == "rpc" {
			rpcProfiles++
		}
	}
	if rpcProfiles != 2 { // 1 client host + "cluster"
		t.Errorf("aggregate carries %d rpc latency profiles, want 2", rpcProfiles)
	}
	for i, hr := range res.PerHost {
		if hr.CPUReport == nil {
			t.Errorf("host %d missing CPU report", i)
		}
		if len(hr.PathBreakdown) == 0 {
			t.Errorf("host %d missing path breakdown", i)
		}
	}
	var om bytes.Buffer
	if err := res.TelemetryRecorder.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`es2_cluster_exits_total{host="h0"}`,
		`es2_cluster_rpc_latency_seconds`,
		`es2_fabric_forwarded_total`,
	} {
		if !bytes.Contains(om.Bytes(), []byte(want)) {
			t.Errorf("OpenMetrics export missing %q", want)
		}
	}
}

// TestRunManyClusterParallelism: parallel execution must not perturb
// results or order.
func TestRunManyClusterParallelism(t *testing.T) {
	specs := []ClusterSpec{smallCluster(Baseline()), smallCluster(Full(4))}
	specs[1].Name = "smoke-full"
	seq, err := RunManyCluster(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	js := func(rs []*ClusterResult) []byte {
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if seq[0].Name != "smoke" || seq[1].Name != "smoke-full" {
		t.Errorf("results out of input order: %q, %q", seq[0].Name, seq[1].Name)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range gomaxprocsSettings() {
		runtime.GOMAXPROCS(procs)
		par, err := RunManyCluster(specs, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js(seq), js(par)) {
			t.Errorf("GOMAXPROCS=%d: RunManyCluster results differ between parallelism 1 and 8", procs)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	cases := []struct {
		name  string
		field string
		mut   func(*ClusterSpec)
	}{
		{"too many hosts", "Hosts", func(s *ClusterSpec) { s.Hosts = 65 }},
		{"no server host", "ClientHosts", func(s *ClusterSpec) { s.ClientHosts = 3 }},
		{"host config mismatch", "HostConfigs", func(s *ClusterSpec) { s.HostConfigs = []Config{{}} }},
		{"too many cluster VMs", "VMsPerHost", func(s *ClusterSpec) { s.Hosts = 32; s.VMsPerHost = 9 }},
		{"oversubscription", "VCPUs", func(s *ClusterSpec) { s.VCPUs = 9; s.VMCores = 2 }},
		{"bad port rate", "Fabric.PortGbps", func(s *ClusterSpec) { s.Fabric.PortGbps = 2000 }},
		{"bad uplink rate", "Fabric.UplinkGbps", func(s *ClusterSpec) { s.Fabric.UplinkGbps = -1 }},
		{"too many flows", "Workload.Flows", func(s *ClusterSpec) { s.Workload.Flows = 1 << 17 }},
		{"storm core out of range", "Faults.StormCores", func(s *ClusterSpec) {
			s.Faults = FaultSpec{PreemptStormEvery: time.Millisecond, PreemptStorm: time.Millisecond,
				StormCores: []int{99}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := smallCluster(Baseline())
			tc.mut(&s)
			_, err := RunCluster(s)
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *SpecError", err)
			}
			if se.Field != tc.field {
				t.Errorf("err field = %q, want %q (%v)", se.Field, tc.field, err)
			}
		})
	}
}

// maxResidentPerFlow bounds the live heap each added closed-loop flow
// keeps in a running rack: its client state, its packets in flight, its
// slots in the rings it queues on and its guest flow-table entry. It
// measures about 418 bytes (go1.24, amd64); 32-byte virtqueue
// descriptors, 96-byte packets and 48-byte vCPU task slots, with a
// used-ring batch copied on every NAPI poll, would cross the bound
// (about 493).
const maxResidentPerFlow = 460

// TestRackResidentPerFlow runs rack1's PI+H+R rack with 2,048 and with
// 8,192 flows to the middle of its window and takes the live heap after
// a GC that each added flow keeps: what limits how big a rack one can
// run.
func TestRackResidentPerFlow(t *testing.T) {
	live := func(flows int) uint64 {
		spec := ClusterSpec{
			Name: "rack1/PI+H+R", Seed: 2017, Config: Full(4),
			Hosts: 8, ClientHosts: 4, VMsPerHost: 4, VCPUs: 2, VMCores: 2, VhostCores: 2,
			Workload: ClusterWorkloadSpec{Flows: flows},
			Warmup:   80 * time.Millisecond, Duration: 150 * time.Millisecond,
		}.withClusterDefaults()
		cb, err := buildCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		warmup := sim.DurationOf(spec.Warmup)
		cb.eng.Run(warmup)
		cb.resetAtWarmupEnd()
		cb.eng.Run(warmup + sim.DurationOf(spec.Duration)/2)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(cb)
		return m.HeapAlloc
	}
	const lo, hi = 2048, 8192
	small, large := live(lo), live(hi)
	per := (float64(large) - float64(small)) / (hi - lo)
	t.Logf("live heap %d bytes at %d flows, %d at %d: %.1f bytes per added flow", small, lo, large, hi, per)
	if per > maxResidentPerFlow {
		t.Errorf("each added flow keeps %.1f live bytes, want at most %d", per, maxResidentPerFlow)
	}
}
