package es2

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"
)

// short returns a spec with a small simulated window for fast tests.
func short(cfg Config, w WorkloadSpec) ScenarioSpec {
	return ScenarioSpec{
		Name: "t", Seed: 5, Config: cfg, Workload: w,
		Warmup: 200 * time.Millisecond, Duration: 400 * time.Millisecond,
	}
}

// shortSMP is the multiplexed variant (4 VMs x 4 vCPUs on 4 cores).
func shortSMP(cfg Config, w WorkloadSpec) ScenarioSpec {
	s := short(cfg, w)
	s.VMs, s.VCPUs, s.VMCores, s.VhostCores = 4, 4, 4, 4
	s.Duration = 600 * time.Millisecond
	return s
}

func mustRun(t *testing.T, s ScenarioSpec) *Result {
	t.Helper()
	r, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunDeterministic(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	a := mustRun(t, spec)
	b := mustRun(t, spec)
	if a.TotalExitRate != b.TotalExitRate || a.ThroughputMbps != b.ThroughputMbps ||
		a.TIG != b.TIG || a.TxPkts != b.TxPkts {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := mustRun(t, ScenarioSpec{
		Name: "t", Seed: 6, Config: Full(4),
		Workload: WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024},
		Warmup:   200 * time.Millisecond, Duration: 400 * time.Millisecond,
	})
	if a.TxPkts == c.TxPkts && a.TotalExitRate == c.TotalExitRate {
		t.Fatal("different seeds produced identical results — rng not wired")
	}
}

func TestPIEliminatesInterruptExits(t *testing.T) {
	base := mustRun(t, short(Baseline(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))
	pi := mustRun(t, short(PIOnly(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))

	if base.ExitRates["ExternalInterrupt"] < 1000 || base.ExitRates["APICAccess"] < 1000 {
		t.Fatalf("baseline should show interrupt-related exits, got %+v", base.ExitRates)
	}
	if pi.ExitRates["APICAccess"] != 0 {
		t.Fatalf("PI must eliminate EOI exits, got %.0f/s", pi.ExitRates["APICAccess"])
	}
	if pi.TIG <= base.TIG {
		t.Fatalf("PI should raise TIG: %.3f vs %.3f", pi.TIG, base.TIG)
	}
	if pi.ThroughputMbps <= base.ThroughputMbps {
		t.Fatalf("PI should raise throughput: %.1f vs %.1f", pi.ThroughputMbps, base.ThroughputMbps)
	}
}

func TestHybridEliminatesIOExitsUDP(t *testing.T) {
	pi := mustRun(t, short(PIOnly(), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}))
	h := mustRun(t, short(PIH(8), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}))

	if pi.IOExitRate < 10_000 {
		t.Fatalf("notification mode should show heavy I/O exits, got %.0f/s", pi.IOExitRate)
	}
	if h.IOExitRate > pi.IOExitRate/50 {
		t.Fatalf("hybrid (quota 8) should make I/O exits negligible: %.0f vs %.0f", h.IOExitRate, pi.IOExitRate)
	}
	if h.TIG < 0.99 {
		t.Fatalf("hybrid UDP send should keep TIG above 99%%, got %.3f", h.TIG)
	}
	if h.ThroughputMbps <= pi.ThroughputMbps {
		t.Fatalf("hybrid should raise UDP throughput: %.1f vs %.1f", h.ThroughputMbps, pi.ThroughputMbps)
	}
}

func TestQuotaMonotonicity(t *testing.T) {
	// Larger quota → weaker polling → at least as many I/O exits.
	prev := -1.0
	for _, q := range []int{8, 32} {
		r := mustRun(t, short(PIH(q), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}))
		if prev >= 0 && r.IOExitRate < prev {
			t.Fatalf("exits should not decrease with larger quota: q=%d %.0f < %.0f", q, r.IOExitRate, prev)
		}
		prev = r.IOExitRate
	}
}

func TestRedirectionImprovesPingRTT(t *testing.T) {
	w := WorkloadSpec{Kind: Ping, PingInterval: 25 * time.Millisecond}
	specBase := shortSMP(PIOnly(), w)
	specBase.Duration = 2 * time.Second
	specFull := shortSMP(Full(4), w)
	specFull.Duration = 2 * time.Second

	base := mustRun(t, specBase)
	full := mustRun(t, specFull)

	if base.MeanLatency < 2*time.Millisecond {
		t.Fatalf("without redirection mean RTT should be CFS-scale, got %v", base.MeanLatency)
	}
	if full.MeanLatency*3 > base.MeanLatency {
		t.Fatalf("redirection should cut RTT by >3x: %v vs %v", full.MeanLatency, base.MeanLatency)
	}
	if len(full.RTTSeries) == 0 {
		t.Fatal("RTT series missing")
	}
	if full.RedirectRate == 0 {
		t.Fatal("redirection never engaged")
	}
}

func TestES2ImprovesMemcached(t *testing.T) {
	base := mustRun(t, shortSMP(Baseline(), WorkloadSpec{Kind: Memcached}))
	full := mustRun(t, shortSMP(Full(4), WorkloadSpec{Kind: Memcached}))
	if base.OpsPerSec <= 0 || full.OpsPerSec <= 0 {
		t.Fatalf("ops missing: base=%.0f full=%.0f", base.OpsPerSec, full.OpsPerSec)
	}
	if full.OpsPerSec < 1.5*base.OpsPerSec {
		t.Fatalf("full ES2 should beat baseline by >=1.5x on Memcached: %.0f vs %.0f",
			full.OpsPerSec, base.OpsPerSec)
	}
	if full.MeanLatency >= base.MeanLatency {
		t.Fatalf("full ES2 should cut request latency: %v vs %v", full.MeanLatency, base.MeanLatency)
	}
}

func TestES2ImprovesApache(t *testing.T) {
	base := mustRun(t, shortSMP(Baseline(), WorkloadSpec{Kind: Apache}))
	full := mustRun(t, shortSMP(Full(4), WorkloadSpec{Kind: Apache}))
	if full.OpsPerSec <= base.OpsPerSec {
		t.Fatalf("full ES2 should beat baseline on Apache: %.0f vs %.0f", full.OpsPerSec, base.OpsPerSec)
	}
	if full.ThroughputMbps <= 0 {
		t.Fatal("Apache throughput missing")
	}
}

func TestHttperfBaselineOverloadsBeforeES2(t *testing.T) {
	w := WorkloadSpec{Kind: Httperf, ConnRate: 2200}
	specB := shortSMP(Baseline(), w)
	specB.Duration = time.Second
	specF := shortSMP(Full(4), w)
	specF.Duration = time.Second
	base := mustRun(t, specB)
	full := mustRun(t, specF)
	if base.MeanLatency < 5*full.MeanLatency {
		t.Fatalf("at 2200 conn/s baseline should blow up vs ES2: %v vs %v",
			base.MeanLatency, full.MeanLatency)
	}
}

func TestNetperfReceiveWorkloads(t *testing.T) {
	tcp := mustRun(t, short(PIOnly(), WorkloadSpec{Kind: NetperfTCPRecv, MsgBytes: 1024}))
	if tcp.ThroughputMbps < 100 {
		t.Fatalf("TCP receive throughput too low: %.1f", tcp.ThroughputMbps)
	}
	udp := mustRun(t, short(PIOnly(), WorkloadSpec{Kind: NetperfUDPRecv, MsgBytes: 1024}))
	if udp.ThroughputMbps < 100 {
		t.Fatalf("UDP receive throughput too low: %.1f", udp.ThroughputMbps)
	}
	if udp.IOExitRate > 1000 {
		t.Fatalf("UDP receive should trigger ~no I/O exits (unidirectional), got %.0f/s", udp.IOExitRate)
	}
	if tcp.IOExitRate <= udp.IOExitRate {
		t.Fatal("TCP receive should show residual ACK-send I/O exits")
	}
}

func TestIdleBurnScenario(t *testing.T) {
	r := mustRun(t, short(Baseline(), WorkloadSpec{Kind: IdleBurn}))
	if r.ThroughputMbps != 0 || r.OpsPerSec != 0 {
		t.Fatal("idle scenario should not report throughput")
	}
	// Timer ticks and background exits still occur.
	if r.TotalExitRate == 0 {
		t.Fatal("idle guest should still show timer/background exits")
	}
}

// gomaxprocsSettings lists GOMAXPROCS 1, 2 and NumCPU, without
// repeats.
func gomaxprocsSettings() []int {
	procs := []int{1, 2}
	if n := runtime.NumCPU(); n > 2 {
		procs = append(procs, n)
	}
	return procs
}

func TestRunManyPreservesOrderAndDeterminism(t *testing.T) {
	specs := []ScenarioSpec{
		short(Baseline(), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}),
		short(PIOnly(), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}),
		short(PIH(8), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}),
	}
	seq, err := RunMany(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism must not perturb anything: at every GOMAXPROCS, the
	// full JSON result set of 8-way execution is byte-identical to the
	// sequential one, in input order.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range gomaxprocsSettings() {
		runtime.GOMAXPROCS(procs)
		par, err := RunMany(specs, 8)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(par)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pj, sj) {
			for i := range specs {
				if par[i].TotalExitRate != seq[i].TotalExitRate {
					t.Errorf("GOMAXPROCS=%d: parallel vs sequential diverged at %d", procs, i)
				}
			}
			t.Fatalf("GOMAXPROCS=%d: RunMany results differ between parallelism 1 and 8", procs)
		}
		if par[0].Config.PI || !par[1].Config.PI {
			t.Fatalf("GOMAXPROCS=%d: result order scrambled", procs)
		}
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	_, err := Run(ScenarioSpec{
		Config:   Baseline(),
		Workload: WorkloadSpec{Kind: NetperfTCPSend},
		VCPUs:    32, VMCores: 1,
	})
	if err == nil {
		t.Fatal("expected error for absurd vCPU/core ratio")
	}
	_, err = Run(ScenarioSpec{Config: Baseline(), Workload: WorkloadSpec{Kind: WorkloadKind(99)}})
	if err == nil {
		t.Fatal("expected error for unknown workload kind")
	}
}

func TestWorkloadKindStrings(t *testing.T) {
	for k := IdleBurn; k <= Httperf; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if WorkloadKind(99).String() != "unknown" {
		t.Fatal("unknown kind should say so")
	}
}

func TestResultSanity(t *testing.T) {
	r := mustRun(t, short(Baseline(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))
	if r.MeasuredSeconds <= 0 {
		t.Fatal("MeasuredSeconds missing")
	}
	if r.TIG <= 0 || r.TIG > 1 {
		t.Fatalf("TIG out of range: %v", r.TIG)
	}
	var sum float64
	for _, v := range r.ExitRates {
		sum += v
	}
	if math.Abs(sum-r.TotalExitRate) > 1 {
		t.Fatalf("exit rates don't add up: %v vs %v", sum, r.TotalExitRate)
	}
	if r.TxPkts == 0 {
		t.Fatal("no packets hit the wire")
	}
}

func TestDirectAssignEliminatesIOExits(t *testing.T) {
	// Section VII: SR-IOV direct assignment removes I/O-request exits
	// by construction; baseline interrupt exits remain; VT-d PI plus
	// redirection then completes the event path.
	spec := short(Baseline(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.DirectAssign = true
	base := mustRun(t, spec)
	if base.IOExitRate > 100 {
		t.Fatalf("direct assignment should remove I/O exits, got %.0f/s", base.IOExitRate)
	}
	if base.ExitRates["APICAccess"] < 1000 {
		t.Fatal("without VT-d PI, EOI exits must remain under direct assignment")
	}
	spec.Config = PIOnly()
	pi := mustRun(t, spec)
	if pi.ExitRates["APICAccess"] != 0 {
		t.Fatal("VT-d PI should remove the interrupt exits for assigned devices")
	}
	if pi.TIG < 0.99 {
		t.Fatalf("SR-IOV + VT-d PI should be nearly exit-free, TIG %.3f", pi.TIG)
	}
}

func TestModerationTradeoff(t *testing.T) {
	// The Section II-C argument: interrupt moderation saves interrupt
	// (and, in the baseline, exit) load but costs latency. Compare ping
	// RTT with and without coalescing on a dedicated-vCPU guest.
	base := short(PIOnly(), WorkloadSpec{Kind: Ping, PingInterval: 5 * time.Millisecond})
	base.Duration = time.Second
	plain := mustRun(t, base)

	mod := base
	mod.CoalesceCount = 32
	mod.CoalesceTimer = 2 * time.Millisecond
	coalesced := mustRun(t, mod)

	// At 200 probes/s the count threshold never fills: every reply
	// waits for the coalescing timer.
	if coalesced.MeanLatency < 10*plain.MeanLatency {
		t.Fatalf("moderation should inflate ping RTT: %v vs %v",
			coalesced.MeanLatency, plain.MeanLatency)
	}
	if coalesced.MeanLatency < time.Millisecond {
		t.Fatalf("coalesced RTT should be timer-scale, got %v", coalesced.MeanLatency)
	}
}

func TestSidecoreBurnsCoreAtLowLoad(t *testing.T) {
	// The Section III-B objection to ELVIS-style polling: exit-less
	// I/O requests, but the dedicated core saturates even at trivial
	// load — while the hybrid scheme stays near-idle.
	low := WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256, SendRatePPS: 2000}

	side := short(PIOnly(), low)
	side.Sidecore = true
	sc := mustRun(t, side)
	if sc.IOExitRate > 100 {
		t.Fatalf("sidecore should be exit-less, got %.0f/s", sc.IOExitRate)
	}
	if sc.VhostCPU < 0.95 {
		t.Fatalf("sidecore worker should saturate its core, got %.2f", sc.VhostCPU)
	}

	hyb := mustRun(t, short(PIH(8), low))
	if hyb.VhostCPU > 0.10 {
		t.Fatalf("hybrid worker should be near-idle at 2k pps, got %.2f", hyb.VhostCPU)
	}
	if sc.PktRate < 1800 || hyb.PktRate < 1800 {
		t.Fatalf("paced load not delivered: side=%.0f hybrid=%.0f", sc.PktRate, hyb.PktRate)
	}
}

func TestSidecoreHybridMutuallyExclusive(t *testing.T) {
	s := short(PIH(8), WorkloadSpec{Kind: NetperfUDPSend})
	s.Sidecore = true
	if _, err := Run(s); err == nil {
		t.Fatal("sidecore + hybrid should be rejected")
	}
}

func TestMultiqueueScalesReceive(t *testing.T) {
	mk := func(queues int) ScenarioSpec {
		return ScenarioSpec{
			Name: "mq", Seed: 5, Config: PIOnly(),
			Workload: WorkloadSpec{
				Kind: NetperfUDPRecv, MsgBytes: 1024, Threads: 8, UDPRatePPS: 1_200_000,
			},
			VMs: 1, VCPUs: 4, VMCores: 4, VhostCores: 4, Queues: queues,
			Warmup: 150 * time.Millisecond, Duration: 300 * time.Millisecond,
		}
	}
	one := mustRun(t, mk(1))
	four := mustRun(t, mk(4))
	if four.ThroughputMbps < 1.5*one.ThroughputMbps {
		t.Fatalf("4 queues should scale receive >1.5x: %.0f vs %.0f Mbps",
			four.ThroughputMbps, one.ThroughputMbps)
	}
	if four.Drops >= one.Drops {
		t.Fatalf("4 queues should shed drops: %d vs %d", four.Drops, one.Drops)
	}
}

// TestMultiqueueTCPSendResumesOnItsPair streams TCP from a two-queue
// VM whose flow hashes to pair 1, with a window larger than the ring.
// Vhost stalls hold the worker long enough for the ring to fill, so
// the sender must park until completions free it. It has to park on
// the pair it transmits on: parked on pair 0, which its flow never
// uses, it never resumes and the window reads zero.
func TestMultiqueueTCPSendResumesOnItsPair(t *testing.T) {
	s := ScenarioSpec{
		Name: "mq-tcp", Seed: 1, Config: PIOnly(),
		Workload: WorkloadSpec{Kind: NetperfTCPSend, Window: 4096},
		VCPUs:    2, VMCores: 2, VhostCores: 2, Queues: 2,
		Warmup: 50 * time.Millisecond, Duration: 200 * time.Millisecond,
		Faults: FaultSpec{VhostStallEvery: 5 * time.Millisecond, VhostStall: 3 * time.Millisecond},
	}
	r := mustRun(t, s)
	if r.PktRate == 0 || r.ThroughputMbps < 1000 {
		t.Fatalf("stream wedged: %.1f Mbps, %.0f pkt/s over the window", r.ThroughputMbps, r.PktRate)
	}
}

func TestQuotaDefaultsByProtocol(t *testing.T) {
	// The paper's Section VI-B selection: 8 for UDP streams, 4 for TCP.
	udp := mustRun(t, short(Config{PI: true, Hybrid: true}, WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}))
	if udp.Config.Quota != 8 {
		t.Fatalf("UDP default quota = %d, want 8", udp.Config.Quota)
	}
	tcp := mustRun(t, short(Config{PI: true, Hybrid: true}, WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))
	if tcp.Config.Quota != 4 {
		t.Fatalf("TCP default quota = %d, want 4", tcp.Config.Quota)
	}
}

func TestPingSeriesTimestampsMonotone(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: Ping, PingInterval: 10 * time.Millisecond})
	spec.Duration = 500 * time.Millisecond
	r := mustRun(t, spec)
	if len(r.RTTSeries) < 30 {
		t.Fatalf("series too short: %d", len(r.RTTSeries))
	}
	for i := 1; i < len(r.RTTSeries); i++ {
		if r.RTTSeries[i].AtSeconds < r.RTTSeries[i-1].AtSeconds {
			t.Fatal("series timestamps not monotone")
		}
		if r.RTTSeries[i].Millis < 0 {
			t.Fatal("negative RTT")
		}
	}
}

func TestUDPSendThroughputMatchesPacketRate(t *testing.T) {
	r := mustRun(t, short(PIH(8), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256}))
	wantMbps := r.PktRate * 256 * 8 / 1e6
	if diff := r.ThroughputMbps - wantMbps; diff > 1 || diff < -1 {
		t.Fatalf("throughput %.1f inconsistent with pkt rate (%.1f)", r.ThroughputMbps, wantMbps)
	}
}

func TestTIGOrderingAcrossConfigs(t *testing.T) {
	// TIG must be monotone across Baseline <= PI <= PI+H for a TCP
	// send workload — each configuration strictly removes exits.
	var prev float64 = -1
	for _, cfg := range []Config{Baseline(), PIOnly(), PIH(4)} {
		r := mustRun(t, short(cfg, WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))
		if r.TIG < prev {
			t.Fatalf("TIG regressed at %s: %.3f < %.3f", cfg.Name(), r.TIG, prev)
		}
		prev = r.TIG
	}
}

func TestDirectAssignIgnoresHybrid(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	spec.DirectAssign = true
	r := mustRun(t, spec)
	// Exit-less either way; the run must simply work and keep TIG high.
	if r.IOExitRate > 100 || r.TIG < 0.99 {
		t.Fatalf("direct assign + full ES2: io=%.0f tig=%.3f", r.IOExitRate, r.TIG)
	}
}
