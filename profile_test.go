package es2

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"es2/internal/causal"
)

// profSpec is short() with CPU profiling enabled.
func profSpec(cfg Config, w WorkloadSpec) ScenarioSpec {
	s := short(cfg, w)
	s.CPUProfile = true
	return s
}

// TestProfileDeterministic: same seed, same spec — byte-identical pprof
// and folded exports, including under fault injection.
func TestProfileDeterministic(t *testing.T) {
	specs := map[string]ScenarioSpec{
		"clean": profSpec(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}),
		"faulted": func() ScenarioSpec {
			s := profSpec(Baseline(), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 256})
			s.Faults = FaultSpec{
				PacketLossProb:  0.02,
				LostKickProb:    0.01,
				VhostStallEvery: 50 * time.Millisecond, VhostStall: 2 * time.Millisecond,
				PreemptStormEvery: 80 * time.Millisecond, PreemptStorm: time.Millisecond,
			}
			return s
		}(),
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			export := func() (pprof, folded []byte) {
				r := mustRun(t, spec)
				if r.CPUProfile == nil {
					t.Fatal("CPUProfile not populated despite spec.CPUProfile")
				}
				var pb, fb bytes.Buffer
				if err := r.CPUProfile.WritePprof(&pb); err != nil {
					t.Fatal(err)
				}
				if err := r.CPUProfile.WriteFolded(&fb); err != nil {
					t.Fatal(err)
				}
				return pb.Bytes(), fb.Bytes()
			}
			p1, f1 := export()
			p2, f2 := export()
			if !bytes.Equal(p1, p2) {
				t.Error("pprof export differs across same-seed runs")
			}
			if !bytes.Equal(f1, f2) {
				t.Error("folded export differs across same-seed runs")
			}
		})
	}
}

// TestProfileReconciles: the profiler's guest-occupant share must match
// Result.TIG and its vhost busy share Result.VhostCPU — the attribution
// is exact, not sampled, so the issue's 0.1% bound is loose.
func TestProfileReconciles(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    Config
	}{{"baseline", Baseline()}, {"full", Full(4)}} {
		t.Run(cfg.name, func(t *testing.T) {
			r := mustRun(t, profSpec(cfg.c, WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))
			rep := r.CPUReport
			if rep == nil {
				t.Fatal("CPUReport not populated")
			}
			if d := math.Abs(rep.GuestShare - r.TIG); d > 1e-3 {
				t.Errorf("guest share %.6f vs TIG %.6f (|d|=%.2g > 0.1%%)", rep.GuestShare, r.TIG, d)
			}
			if d := math.Abs(rep.VhostBusy - r.VhostCPU); d > 1e-3 {
				t.Errorf("vhost busy %.6f vs VhostCPU %.6f (|d|=%.2g > 0.1%%)", rep.VhostBusy, r.VhostCPU, d)
			}
			// The window must be fully attributed: busy + idle covers every
			// core-window. A chunk straddling the window start can spill a
			// sub-microsecond excess in (idle clamps at zero), so the sum may
			// sit a hair above the core count but never below it.
			var accounted float64
			for _, cu := range rep.Cores {
				for _, share := range cu.Occupants {
					accounted += share
				}
			}
			if n := float64(len(rep.Cores)); accounted < n-1e-9 || accounted > n+1e-3 {
				t.Errorf("attributed %.9f core-windows across %d cores", accounted, len(rep.Cores))
			}
		})
	}
}

// TestProfileShowsExitReduction: the headline use of the profiler — an
// ES2-vs-baseline diff shows the exit-handling cycles Algorithm 1
// eliminates.
func TestProfileShowsExitReduction(t *testing.T) {
	w := WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}
	base := mustRun(t, profSpec(Baseline(), w)).CPUReport
	es2 := mustRun(t, profSpec(Full(4), w)).CPUReport

	sum := func(rep *CPUReport) (total int64) {
		for _, ns := range rep.ExitNanos {
			total += ns
		}
		return
	}
	b, e := sum(base), sum(es2)
	if b == 0 {
		t.Fatal("baseline profile attributes no exit-handling time")
	}
	if e >= b {
		t.Errorf("ES2 exit cycles %dns not below baseline %dns", e, b)
	}
	// PI removes EOI handling entirely: no APICAccess context survives.
	if ns, ok := es2.ExitNanos["exit:APICAccess"]; ok {
		t.Errorf("ES2 profile still attributes %dns to exit:APICAccess", ns)
	}
}

// TestProfileDoesNotPerturb: enabling the profiler must not change the
// simulation — it observes charge boundaries that exist anyway.
func TestProfileDoesNotPerturb(t *testing.T) {
	spec := short(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})
	plain := mustRun(t, spec)
	profiled := mustRun(t, profSpec(Full(4), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024}))

	if plain.TxPkts != profiled.TxPkts || plain.RxPkts != profiled.RxPkts ||
		plain.TIG != profiled.TIG || plain.TotalExitRate != profiled.TotalExitRate ||
		plain.ThroughputMbps != profiled.ThroughputMbps || plain.VhostCPU != profiled.VhostCPU {
		t.Fatalf("profiling perturbed the run:\nplain    %+v\nprofiled %+v", plain, profiled)
	}
	if plain.CPUProfile != nil || plain.CPUReport != nil {
		t.Fatal("profile populated without spec.CPUProfile")
	}
}

// TestResultJSONStable: the Result JSON schema the CLIs emit is part of
// the tool contract (EXPERIMENTS.md "Machine-readable results") — keys
// are snake_case, durations are _ns, and internal handles stay hidden.
func TestResultJSONStable(t *testing.T) {
	s := profSpec(Full(4), WorkloadSpec{Kind: Ping})
	s.PathTrace = true
	r := mustRun(t, s)
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"name", "config", "measured_seconds", "exit_rates", "total_exit_rate",
		"io_exit_rate", "tig", "vhost_cpu", "dev_irq_rate", "redirect_rate",
		"throughput_mbps", "pkt_rate", "mean_latency_ns", "p99_latency_ns",
		"tx_pkts", "rx_pkts", "drops", "cpu_report",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("Result JSON lacks %q; got keys %v", key, keysOf(doc))
		}
	}
	for _, key := range []string{"Timeline", "CPUProfile", "TIG", "ExitRates"} {
		if _, ok := doc[key]; ok {
			t.Errorf("Result JSON leaks non-schema key %q", key)
		}
	}
	rep, ok := doc["cpu_report"].(map[string]any)
	if !ok {
		t.Fatal("cpu_report is not an object")
	}
	for _, key := range []string{"window_seconds", "cores", "top", "exit_ns", "guest_share", "vhost_busy"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("cpu_report lacks %q; got keys %v", key, keysOf(rep))
		}
	}
	stages, ok := doc["path_breakdown"].([]any)
	if !ok || len(stages) == 0 {
		t.Fatal("PathTrace run produced no path_breakdown")
	}
	// The breakdown speaks the critical path's one stage taxonomy.
	stageNames := map[string]bool{}
	for s := causal.Stage(0); s < causal.NumStages; s++ {
		stageNames[s.String()] = true
	}
	for _, st := range stages {
		cell, ok := st.(map[string]any)
		if !ok {
			t.Fatal("path_breakdown element is not an object")
		}
		for _, key := range []string{"stage", "count", "mean_ns", "p50_ns", "p99_ns", "max_ns"} {
			if _, ok := cell[key]; !ok {
				t.Errorf("path_breakdown cell lacks %q; got keys %v", key, keysOf(cell))
			}
		}
		if _, ok := cell["mechanism"]; ok {
			t.Errorf("path_breakdown cell has a mechanism key: %v", cell)
		}
		if name, _ := cell["stage"].(string); !stageNames[name] {
			t.Errorf("path_breakdown stage %q is not a critical-path stage", name)
		}
	}
	if rtts, ok := doc["rtt_series"].([]any); !ok || len(rtts) == 0 {
		t.Fatal("ping run produced no rtt_series")
	} else if pt, ok := rtts[0].(map[string]any); !ok {
		t.Fatal("rtt_series element is not an object")
	} else {
		for _, key := range []string{"at", "ms"} {
			if _, ok := pt[key]; !ok {
				t.Errorf("rtt point lacks %q; got keys %v", key, keysOf(pt))
			}
		}
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
