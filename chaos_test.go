package es2

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"es2/internal/faults"
	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vhost"
)

// chaosClusterSpec is the rack1-derived robustness scenario at test
// scale: eight hosts with one vCPU per VM pinned 1:1 onto VM cores,
// resilient closed-loop clients, and a macro-fault timeline of one
// whole-host crash plus two link flaps inside the measurement window.
func chaosClusterSpec() ClusterSpec {
	return ClusterSpec{
		Name:        "chaos-test",
		Seed:        7,
		Config:      Full(4),
		Hosts:       8,
		ClientHosts: 4,
		VMsPerHost:  4,
		VCPUs:       1,
		VMCores:     4,
		VhostCores:  2,
		Workload: ClusterWorkloadSpec{
			Flows:           256,
			RequestTimeout:  time.Millisecond,
			RetryBackoff:    100 * time.Microsecond,
			RetryBackoffMax: 600 * time.Microsecond,
			FailoverAfter:   2,
		},
		Chaos: ChaosSpec{
			HostCrashes: 1,
			CrashDown:   3 * time.Millisecond,
			LinkFlaps:   2,
			FlapDown:    750 * time.Microsecond,
			MinGap:      time.Millisecond,
			MaxGap:      2500 * time.Microsecond,
		},
		Warmup:   20 * time.Millisecond,
		Duration: 37500 * time.Microsecond,
	}
}

// TestChaosRecoveryAccounting is the headline robustness contract: a
// host crash plus two link flaps during the window, and the run must
// end with every fault recovered (finite MTTR), every flow either
// completing or failed over, and the resilience counters populated.
func TestChaosRecoveryAccounting(t *testing.T) {
	res, err := RunCluster(chaosClusterSpec())
	if err != nil {
		t.Fatal(err)
	}
	rec := res.Recovery
	if rec == nil {
		t.Fatal("chaos run produced no recovery report")
	}
	if got := len(rec.Faults); got != 3 {
		t.Fatalf("injected %d faults, want 3 (1 crash + 2 flaps)", got)
	}
	if rec.HostCrashes != 1 || rec.LinkFlaps != 2 {
		t.Errorf("fault tallies = %d crashes, %d flaps; want 1, 2",
			rec.HostCrashes, rec.LinkFlaps)
	}
	for _, f := range rec.Faults {
		if f.MTTRMs < 0 {
			t.Errorf("%s on %s (start %.2fms) never recovered: MTTR < 0",
				f.Kind, f.Target, f.StartMs)
		}
		if f.MTTRMs >= 0 && f.MTTRMs < f.OutageMs {
			t.Errorf("%s on %s: MTTR %.2fms shorter than its own outage %.2fms",
				f.Kind, f.Target, f.MTTRMs, f.OutageMs)
		}
	}
	if rec.FlowsUnaccounted != 0 {
		t.Errorf("%d flows neither completed nor failed over", rec.FlowsUnaccounted)
	}
	if rec.Timeouts == 0 || rec.Retries == 0 {
		t.Errorf("resilience counters empty (timeouts=%d retries=%d); a host "+
			"crash must force client deadlines to fire", rec.Timeouts, rec.Retries)
	}
	if rec.LinkDrops == 0 {
		t.Error("link flaps injected but no frames counted as link drops")
	}
	if rec.TotalWindows == 0 || rec.Availability <= 0 || rec.Availability > 1 {
		t.Errorf("availability %.3f over %d windows out of range",
			rec.Availability, rec.TotalWindows)
	}
	if rec.DegradedSeconds <= 0 {
		t.Error("three outage episodes but zero degraded time recorded")
	}
	if res.Aggregate.OpsPerSec <= 0 {
		t.Error("no RPCs completed in the measurement window")
	}
}

// TestChaosDeterministicReplay extends the cluster replay guarantee to
// chaotic runs: with the macro-fault timeline, telemetry, the causal
// critical-path analyzer and the invariant checker all enabled, two
// runs of the same spec must produce byte-identical JSON results and
// OpenMetrics exports.
func TestChaosDeterministicReplay(t *testing.T) {
	spec := chaosClusterSpec()
	spec.Telemetry = true
	spec.TelemetryWindow = 5 * time.Millisecond
	spec.CritPath = true
	spec.Check = true

	run := func() ([]byte, []byte) {
		res, err := RunCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery == nil || len(res.Recovery.Faults) == 0 {
			t.Fatal("chaos run produced no recovery report")
		}
		if res.InvariantChecks == 0 {
			t.Fatal("invariant checker never ran")
		}
		if res.CriticalPath == nil {
			t.Fatal("critical-path analyzer produced no report")
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
		t.Errorf("results differ between identical chaos runs:\n%s\n---\n%s", r1, r2)
	}
	if !bytes.Equal(o1, o2) {
		t.Error("OpenMetrics exports differ between identical chaos runs")
	}
	for _, metric := range []string{
		"es2_chaos_injected", "es2_chaos_hosts_down", "es2_chaos_rpc_timeouts",
		"es2_chaos_rpc_retries", "es2_chaos_link_drops",
	} {
		if !bytes.Contains(o1, []byte(metric)) {
			t.Errorf("OpenMetrics export missing chaos series %s", metric)
		}
	}
}

// TestWarmupResetClearsFaultCounters is the warmup-hygiene regression:
// micro-faults injected during warmup must not leak into the measured
// window. After the warmup run every host's injector has tallied
// something; resetAtWarmupEnd must zero all of them plus the chaos
// controller's window-scoped state.
func TestWarmupResetClearsFaultCounters(t *testing.T) {
	spec := chaosClusterSpec()
	spec.Faults = FaultSpec{
		PacketLossProb:  0.02,
		LostKickProb:    0.02,
		VhostStallEvery: 5 * time.Millisecond,
		VhostStall:      200 * time.Microsecond,
	}
	spec = spec.withClusterDefaults()
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	cb, err := buildCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	cb.eng.Run(sim.DurationOf(spec.Warmup))

	var warm faults.Counters
	for _, h := range cb.hosts {
		if h.inj == nil {
			t.Fatal("fault spec enabled but host has no injector")
		}
		c := h.inj.Counters
		warm.WireDrops += c.WireDrops
		warm.LostKicks += c.LostKicks
		warm.VhostStalls += c.VhostStalls
	}
	if warm.WireDrops == 0 && warm.LostKicks == 0 && warm.VhostStalls == 0 {
		t.Fatal("warmup injected no micro-faults; the regression test is vacuous")
	}

	cb.resetAtWarmupEnd()
	for i, h := range cb.hosts {
		if h.inj.Counters != (faults.Counters{}) {
			t.Errorf("host %d injector counters not cleared at warmup end: %+v",
				i, h.inj.Counters)
		}
	}
	if cb.chaos == nil {
		t.Fatal("chaos spec enabled but no controller installed")
	}
	if cb.chaos.degradedNs != 0 || cb.chaos.degradedDone != 0 || cb.chaos.healthyDone != 0 {
		t.Error("chaos controller window state not cleared at warmup end")
	}
}

// TestFailoverKeepsOldHostSteering fails one flow over from a server
// host marked down, then hands a frame of the flow to the old host's
// demux and another to the new host's. The new host must steer its
// frame by the rebound route. The old host must still steer frames
// already on their way to it when the flow moved, as a real NIC's
// steering entry outlives a failover; the golden corpus cannot catch a
// host that forgets them, because none of its digests changes.
func TestFailoverKeepsOldHostSteering(t *testing.T) {
	spec := chaosClusterSpec()
	spec.Hosts, spec.ClientHosts, spec.VMsPerHost = 3, 1, 2
	spec.Workload.Flows = 16
	spec = spec.withClusterDefaults()
	if err := spec.validate(); err != nil {
		t.Fatal(err)
	}
	cb, err := buildCluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	r := cb.route(id)
	if r == nil {
		t.Fatalf("flow %d has no route", id)
	}
	oldHost, oldDev := cb.servers[r.srv].h, r.serverDev
	cb.chaos.hostDown[oldHost.index] = true
	if !cb.chaos.failover(id) {
		t.Fatalf("failover refused flow %d although its server host h%d is down", id, oldHost.index)
	}
	newHost, newDev := cb.servers[r.srv].h, r.serverDev
	if newHost == oldHost || r.server != newHost.port {
		t.Fatalf("flow %d still routed to h%d after failover (route names h%d)", id, oldHost.index, newHost.index)
	}
	for _, side := range []struct {
		what string
		h    *clusterHost
		dev  *vhost.Device
	}{{"old", oldHost, oldDev}, {"new", newHost, newDev}} {
		before := side.dev.Backlog()
		side.h.demux.Receive(&netsim.Packet{Flow: id, Kind: guest.KindRequest, Bytes: 64})
		if side.dev.Backlog() != before+1 || side.h.demux.Drops != 0 {
			t.Errorf("%s server host h%d: a frame of flow %d left the device backlog at %d (was %d) with %d demux drops; want it steered to the device",
				side.what, side.h.index, id, side.dev.Backlog(), before, side.h.demux.Drops)
		}
	}
}
