package es2_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"es2"
	"es2/experiments"
)

// The golden corpus pins the simulator's observable output: SHA-256
// digests of the canonical result JSON and of every export format
// (OpenMetrics, folded CPU profile, Chrome-trace timeline, critical
// path, JSONL event log) for a fixed set of seeded scenarios covering
// every workload, configuration knob, observer and fault kind on both
// the single-host and the rack runner. A refactor that claims "same
// behaviour" must leave every digest unchanged; an intended behaviour
// change regenerates them with
//
//	go test -run TestGolden -update .
//
// and commits testdata/golden.json in the same diff.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenSpec keeps every single-host case short: long enough for each
// workload to reach steady state and exercise its observers, short
// enough that the whole corpus stays within a few seconds.
func goldenSpec(name string, cfg es2.Config, w es2.WorkloadSpec) es2.ScenarioSpec {
	return es2.ScenarioSpec{
		Name: name, Seed: 17, Config: cfg, Workload: w,
		Warmup: 15 * time.Millisecond, Duration: 25 * time.Millisecond,
	}
}

// goldenFaults switches on all seven micro-fault kinds.
var goldenFaults = es2.FaultSpec{
	PacketLossProb: 0.002, PacketDupProb: 0.002,
	LostKickProb: 0.01, LostSignalProb: 0.01,
	VhostStallEvery: 2 * time.Millisecond, VhostStall: 50 * time.Microsecond,
	PIOutageEvery: 3 * time.Millisecond, PIOutage: 200 * time.Microsecond,
	PreemptStormEvery: 4 * time.Millisecond, PreemptStorm: 300 * time.Microsecond,
}

// goldenSLO declares one objective of each kind.
var goldenSLO = es2.SLOSpec{Objectives: []es2.SLOObjective{
	{Name: "availability", Kind: es2.SLOAvailability, Target: 0.999},
	{Name: "tail-latency", Kind: es2.SLOLatency, Target: 0.99, Threshold: 2 * time.Millisecond},
	{Name: "goodput-floor", Kind: es2.SLOGoodput, Target: 0.99, MinOpsPerSec: 1000},
}}

func goldenScenarios() []es2.ScenarioSpec {
	workloads := []es2.WorkloadSpec{
		{Kind: es2.IdleBurn},
		{Kind: es2.NetperfTCPSend},
		{Kind: es2.NetperfTCPRecv},
		{Kind: es2.NetperfUDPSend, MsgBytes: 256},
		{Kind: es2.NetperfUDPRecv, MsgBytes: 256},
		{Kind: es2.Ping, PingInterval: time.Millisecond},
		{Kind: es2.Memcached},
		{Kind: es2.Apache},
		{Kind: es2.Httperf, ConnRate: 20000},
	}
	var specs []es2.ScenarioSpec
	for _, c := range []struct {
		name string
		cfg  es2.Config
	}{{"baseline", es2.Baseline()}, {"full", es2.Full(4)}} {
		for _, w := range workloads {
			specs = append(specs, goldenSpec("single/"+c.name+"/"+w.Kind.String(), c.cfg, w))
		}
		load := goldenSpec("single/"+c.name+"/memcached-openloop", c.cfg, es2.WorkloadSpec{Kind: es2.Memcached})
		load.VCPUs = 2
		load.CritPath = true
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
		specs = append(specs, load)
	}

	// Every observer and every fault kind at once, on a multiplexed
	// host so redirection, storms and the probes all have work to do.
	obs := goldenSpec("single/observers-faults", es2.Full(4), es2.WorkloadSpec{Kind: es2.Memcached})
	obs.VMs, obs.VCPUs, obs.VMCores = 2, 2, 2
	obs.PathTrace, obs.Timeline = true, true
	obs.CPUProfile = true
	obs.Telemetry, obs.TelemetryWindow = true, 5*time.Millisecond
	obs.CritPath = true
	obs.SLO = goldenSLO
	obs.Check = true
	obs.Faults = goldenFaults
	specs = append(specs, obs)

	// TCP in both directions under wire loss and lost notifications, so
	// the guest's and the peer's retransmission timers fire; the sender
	// once more without recovery.
	lossy := goldenFaults
	lossy.PacketLossProb = 0.01
	for _, c := range []struct {
		name       string
		kind       es2.WorkloadKind
		noRecovery bool
	}{
		{"tcp-recv-faults", es2.NetperfTCPRecv, false},
		{"tcp-send-faults", es2.NetperfTCPSend, false},
		{"tcp-send-faults-norecovery", es2.NetperfTCPSend, true},
	} {
		s := goldenSpec("single/"+c.name, es2.PIH(4), es2.WorkloadSpec{Kind: c.kind, Threads: 2})
		s.VCPUs = 2
		s.Faults = lossy
		s.Faults.NoRecovery = c.noRecovery
		s.Telemetry = true
		specs = append(specs, s)
	}

	// Multiqueue with sidecore polling, interrupt coalescing and direct
	// assignment on a two-VM host.
	cfg := es2.PIOnly()
	cfg.Redirect = true
	mq := goldenSpec("single/multiqueue-sidecore-direct", cfg, es2.WorkloadSpec{Kind: es2.NetperfUDPRecv, Threads: 2, MsgBytes: 512})
	mq.VMs, mq.VCPUs, mq.Queues = 2, 2, 2
	mq.Sidecore = true
	mq.CoalesceCount, mq.CoalesceTimer = 8, 50*time.Microsecond
	mq.DirectAssign = true
	specs = append(specs, mq)
	return specs
}

func goldenClusters() []es2.ClusterSpec {
	var specs []es2.ClusterSpec
	for _, s := range experiments.ScaleCluster(experiments.Rack1(), 16).Specs {
		s.Faults = goldenFaults
		s.Telemetry = true
		s.CritPath = true
		s.SLO = experiments.DefaultSLO()
		s.CPUProfile = true
		s.PathTrace = true
		s.Check = true
		specs = append(specs, s)
	}
	// Chaos and the open-loop day with the exporters that have series
	// and SLO bindings specific to them.
	for _, e := range []experiments.ClusterExperiment{
		experiments.ScaleCluster(experiments.Chaos(), 8),
		experiments.ScaleCluster(experiments.Daycycle(), 16),
	} {
		for _, s := range e.Specs {
			s.Telemetry = true
			s.SLO = experiments.DefaultSLO()
			specs = append(specs, s)
		}
	}
	specs = append(specs, es2.ClusterSpec{
		Name: "mixed-fleet", Seed: 17,
		Hosts: 3, ClientHosts: 1, VMsPerHost: 2,
		HostConfigs: []es2.Config{es2.Baseline(), es2.PIOnly(), es2.Full(4)},
		DirectHosts: []bool{false, true, false},
		Workload:    es2.ClusterWorkloadSpec{Flows: 64},
		Telemetry:   true,
		Warmup:      5 * time.Millisecond, Duration: 10 * time.Millisecond,
	})
	return specs
}

// artifact renders one export through its writer.
func artifact(write func(*bytes.Buffer) error) ([]byte, error) {
	var b bytes.Buffer
	err := write(&b)
	return b.Bytes(), err
}

// resultArtifacts renders a single-host result and each of its exports.
func resultArtifacts(r *es2.Result) (map[string][]byte, error) {
	out := map[string][]byte{}
	var err error
	if out["result"], err = json.Marshal(r); err != nil {
		return nil, err
	}
	if r.TelemetryRecorder != nil {
		if out["openmetrics"], err = artifact(func(b *bytes.Buffer) error { return r.TelemetryRecorder.WriteOpenMetrics(b) }); err != nil {
			return nil, err
		}
	}
	if r.CPUProfile != nil {
		if out["folded"], err = artifact(func(b *bytes.Buffer) error { return r.CPUProfile.WriteFolded(b) }); err != nil {
			return nil, err
		}
	}
	if r.Timeline != nil {
		if out["timeline"], err = artifact(func(b *bytes.Buffer) error { return r.Timeline.WriteJSON(b) }); err != nil {
			return nil, err
		}
	}
	if r.CriticalPath != nil {
		if out["critpath"], err = json.Marshal(r.CriticalPath); err != nil {
			return nil, err
		}
	}
	if r.SLO != nil {
		if out["slo_jsonl"], err = artifact(func(b *bytes.Buffer) error { return es2.WriteEventLog(b, r.SLO, nil) }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// clusterArtifacts renders a cluster result and each of its exports;
// per-host profiles fold into one document in host order.
func clusterArtifacts(r *es2.ClusterResult) (map[string][]byte, error) {
	out := map[string][]byte{}
	var err error
	if out["result"], err = json.Marshal(r); err != nil {
		return nil, err
	}
	if r.TelemetryRecorder != nil {
		if out["openmetrics"], err = artifact(func(b *bytes.Buffer) error { return r.TelemetryRecorder.WriteOpenMetrics(b) }); err != nil {
			return nil, err
		}
	}
	var folded bytes.Buffer
	for _, h := range r.PerHost {
		if h.CPUProfile == nil {
			continue
		}
		fmt.Fprintf(&folded, "# %s\n", h.Name)
		if err := h.CPUProfile.WriteFolded(&folded); err != nil {
			return nil, err
		}
	}
	if folded.Len() > 0 {
		out["folded"] = folded.Bytes()
	}
	if r.CriticalPath != nil {
		if out["critpath"], err = json.Marshal(r.CriticalPath); err != nil {
			return nil, err
		}
	}
	if r.SLO != nil || r.Recovery != nil {
		if out["slo_jsonl"], err = artifact(func(b *bytes.Buffer) error { return es2.WriteEventLog(b, r.SLO, r.Recovery) }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func digests(arts map[string][]byte) map[string]string {
	d := make(map[string]string, len(arts))
	for k, v := range arts {
		sum := sha256.Sum256(v)
		d[k] = hex.EncodeToString(sum[:])
	}
	return d
}

// TestGolden recomputes every digest of the corpus and compares it with
// testdata/golden.json.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse floating-point multiply-adds on other
		// architectures, which legitimately perturbs the last bits of
		// derived rates.
		t.Skipf("golden digests are pinned for amd64; GOARCH=%s", runtime.GOARCH)
	}
	// The invariant checker adds a tick count to every result; the
	// corpus pins the spec's own setting, not the environment's.
	t.Setenv("ES2_CHECK", "")

	got := map[string]map[string]string{}
	single := goldenScenarios()
	rs, err := es2.RunMany(single, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		arts, err := resultArtifacts(r)
		if err != nil {
			t.Fatalf("%s: %v", single[i].Name, err)
		}
		got[single[i].Name] = digests(arts)
	}
	clusters := goldenClusters()
	crs, err := es2.RunManyCluster(clusters, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range crs {
		arts, err := clusterArtifacts(r)
		if err != nil {
			t.Fatalf("%s: %v", clusters[i].Name, err)
		}
		got["cluster/"+clusters[i].Name] = digests(arts)
	}

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(got), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with: go test -run TestGolden -update .)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	var diffs []string
	for _, name := range sortedKeys(want, got) {
		w, g := want[name], got[name]
		for _, art := range sortedKeys(w, g) {
			switch {
			case w[art] == "":
				diffs = append(diffs, fmt.Sprintf("%s: %s: new output (not in corpus)", name, art))
			case g[art] == "":
				diffs = append(diffs, fmt.Sprintf("%s: %s: output missing", name, art))
			case w[art] != g[art]:
				diffs = append(diffs, fmt.Sprintf("%s: %s: digest %.12s, want %.12s", name, art, g[art], w[art]))
			}
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%d golden digests changed; if the change is intended, regenerate with\n\tgo test -run TestGolden -update .\n%s",
			len(diffs), strings.Join(diffs, "\n"))
	}
}

// sortedKeys returns the union of both maps' keys in order.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
