package es2

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// shortPath returns a fast spec with the event-path spectra enabled.
func shortPath(cfg Config, w WorkloadSpec) ScenarioSpec {
	s := short(cfg, w)
	s.Warmup, s.Duration = 100*time.Millisecond, 200*time.Millisecond
	s.PathTrace = true
	return s
}

func findStage(r *Result, stage string) *PathStage {
	for i := range r.PathBreakdown {
		if r.PathBreakdown[i].Stage == stage {
			return &r.PathBreakdown[i]
		}
	}
	return nil
}

func TestPathBreakdownMechanismSplit(t *testing.T) {
	// The breakdown's point: showing WHICH mechanism served each stage.
	// Under the baseline every doorbell kick traps, so the notify stage
	// is exit-driven; under ES2's hybrid polling the worker picks kicks
	// up without exits, so the same span lands on notify-poll.
	w := WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 1024}
	base := mustRun(t, shortPath(Baseline(), w))
	full := mustRun(t, shortPath(Full(0), w))

	if len(base.PathBreakdown) == 0 || len(full.PathBreakdown) == 0 {
		t.Fatal("PathTrace produced no breakdown")
	}
	be := findStage(base, "notify-exit")
	if be == nil || be.Count == 0 {
		t.Fatalf("baseline lacks exit-driven notify spans: %+v", base.PathBreakdown)
	}
	if be.Mean <= 0 || be.P99 < be.P50 || be.Max < be.P99 {
		t.Fatalf("implausible notify-exit stats: %+v", *be)
	}
	if fp := findStage(full, "notify-poll"); fp == nil || fp.Count == 0 {
		t.Fatalf("full config lacks polled notify spans: %+v", full.PathBreakdown)
	}
	if fe := findStage(full, "notify-exit"); fe != nil {
		t.Fatalf("full config still shows exit-driven kicks: %+v", *fe)
	}

	// Stage coverage: the TX path must at least cross notify and
	// backend-tx, and the breakdown must not repeat a cell.
	if findStage(base, "backend-tx") == nil {
		t.Fatalf("baseline lacks backend-tx spans: %+v", base.PathBreakdown)
	}
	seen := map[string]bool{}
	for _, st := range base.PathBreakdown {
		if seen[st.Stage] {
			t.Fatalf("duplicate breakdown cell %q", st.Stage)
		}
		seen[st.Stage] = true
	}
}

func TestPathBreakdownSignalMechanisms(t *testing.T) {
	// RX-heavy workload exercises the interrupt-delivery stages: the
	// baseline injects via the emulated LAPIC, ES2 posts in hardware.
	w := WorkloadSpec{Kind: NetperfUDPRecv, MsgBytes: 1024}
	base := mustRun(t, shortPath(Baseline(), w))
	full := mustRun(t, shortPath(Full(0), w))

	if s := findStage(base, "irq-emulated"); s == nil || s.Count == 0 {
		t.Fatalf("baseline lacks emulated interrupt spans: %+v", base.PathBreakdown)
	}
	if s := findStage(full, "irq-posted"); s == nil || s.Count == 0 {
		t.Fatalf("full config lacks posted interrupt spans: %+v", full.PathBreakdown)
	}
	for _, want := range []string{"backend-rx", "signal", "wakeup", "ring-wait", "guest-rx"} {
		if s := findStage(full, want); s == nil || s.Count == 0 {
			t.Fatalf("full config lacks %s spans: %+v", want, full.PathBreakdown)
		}
	}
}

// TestPathBreakdownMatchesCriticalPath pins the one taxonomy: on Ping,
// where every packet belongs to a chain, the spans behind the path
// breakdown and the chains behind the blame profile cross the same
// boundaries, so every breakdown cell equals the blame row of its stage
// in count and mean.
func TestPathBreakdownMatchesCriticalPath(t *testing.T) {
	for _, cfg := range []Config{Baseline(), Full(4)} {
		t.Run(cfg.String(), func(t *testing.T) {
			s := short(cfg, WorkloadSpec{Kind: Ping, PingInterval: time.Millisecond})
			s.Warmup, s.Duration = 20*time.Millisecond, 200*time.Millisecond
			s.PathTrace, s.CritPath = true, true
			r := mustRun(t, s)
			if len(r.PathBreakdown) == 0 || r.CriticalPath == nil {
				t.Fatal("run produced no breakdown or no critical path")
			}
			blame := map[string]CriticalPathStage{}
			for _, row := range r.CriticalPath.Stages {
				blame[row.Stage] = row
			}
			for _, cell := range r.PathBreakdown {
				row, ok := blame[cell.Stage]
				if !ok {
					t.Fatalf("breakdown cell %q has no blame row: %+v", cell.Stage, r.CriticalPath.Stages)
				}
				if cell.Count != row.Count || int64(cell.Mean) != row.MeanNs {
					t.Errorf("%s: breakdown %d spans, mean %d ns; blame %d, mean %d ns",
						cell.Stage, cell.Count, int64(cell.Mean), row.Count, row.MeanNs)
				}
			}
		})
	}
}

// TestPathBreakdownShowsRedirection: on a multiplexed host, ES2's
// redirection sends device interrupts to a vCPU that is already on a
// core, so the wakeup stage (injection → target vCPU running)
// collapses. PI alone must wait for the affinity vCPU's next slice.
func TestPathBreakdownShowsRedirection(t *testing.T) {
	wakeup := func(cfg Config) time.Duration {
		s := short(cfg, WorkloadSpec{Kind: Memcached})
		s.VMs, s.VCPUs, s.VMCores = 4, 4, 4
		s.Warmup, s.Duration = 50*time.Millisecond, 200*time.Millisecond
		s.PathTrace = true
		r := mustRun(t, s)
		st := findStage(r, "wakeup")
		if st == nil || st.Count == 0 {
			t.Fatalf("%v: no wakeup spans: %+v", cfg, r.PathBreakdown)
		}
		return st.Mean
	}
	pi, full := wakeup(PIOnly()), wakeup(Full(4))
	t.Logf("wakeup mean: PI %v, Full %v", pi, full)
	if full*4 > pi {
		t.Fatalf("redirection did not collapse wakeup: PI %v, Full %v (want Full <= PI/4)", pi, full)
	}
}

func TestObservabilityOffByDefault(t *testing.T) {
	r := mustRun(t, short(Full(0), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 1024}))
	if len(r.PathBreakdown) != 0 {
		t.Fatalf("PathBreakdown filled without PathTrace: %+v", r.PathBreakdown)
	}
	if len(r.Probes) != 0 {
		t.Fatal("Probes filled without PathTrace")
	}
	if r.Timeline != nil {
		t.Fatal("Timeline filled without Timeline flag")
	}
}

// TestTimelineDeterministicAndValid checks that the timeline replays
// byte-identically and records every event-path event kind: an
// exit:<reason> slice for each reason the run counted, interrupt
// deliveries as irq instants and, on a multiplexed host, redirections
// and vCPU slices on the core tracks. (An emulated EOI is its
// APICAccess exit slice; the completions themselves are counted in
// IRQCompleted.)
func TestTimelineDeterministicAndValid(t *testing.T) {
	smp := shortPath(Full(4), WorkloadSpec{Kind: Memcached})
	smp.VMs, smp.VCPUs, smp.VMCores = 2, 2, 2
	smp.Warmup, smp.Duration = 20*time.Millisecond, 50*time.Millisecond
	for _, tc := range []struct {
		name string
		spec ScenarioSpec
	}{
		{"full-udp-recv", shortPath(Full(0), WorkloadSpec{Kind: NetperfUDPRecv, MsgBytes: 1024})},
		{"baseline-tcp-send", shortPath(Baseline(), WorkloadSpec{Kind: NetperfTCPSend, MsgBytes: 1024})},
		{"full-memcached-2x2x2", smp},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Timeline = true
			run := func() (*Result, []byte) {
				t.Helper()
				r := mustRun(t, spec)
				if r.Timeline == nil || r.Timeline.Len() == 0 {
					t.Fatal("timeline empty")
				}
				var buf bytes.Buffer
				if err := r.Timeline.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				return r, buf.Bytes()
			}
			r, a := run()
			if _, b := run(); !bytes.Equal(a, b) {
				t.Fatal("identical spec+seed produced different timeline bytes")
			}

			var doc struct {
				Events []struct {
					Ph   string `json:"ph"`
					Pid  int    `json:"pid"`
					Name string `json:"name"`
					Args struct {
						Name string `json:"name"`
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(a, &doc); err != nil {
				t.Fatalf("timeline is not valid JSON: %v", err)
			}
			phases := map[string]int{}
			slices, instants := map[string]bool{}, map[string]bool{}
			corePid, coreSlices := 0, map[string]bool{}
			for _, e := range doc.Events {
				phases[e.Ph]++
				switch {
				case e.Ph == "M" && e.Name == "process_name" && e.Args.Name == "cores":
					corePid = e.Pid
				case e.Ph == "X":
					slices[e.Name] = true
					if e.Pid == corePid {
						coreSlices[e.Name] = true
					}
				case e.Ph == "i":
					instants[e.Name] = true
				}
			}
			// Track metadata, exit/worker slices, irq instants and probe
			// counters.
			for _, ph := range []string{"M", "X", "i", "C"} {
				if phases[ph] == 0 {
					t.Fatalf("timeline lacks %q events: %v", ph, phases)
				}
			}
			for reason, rate := range r.ExitRates {
				if rate > 0 && !slices["exit:"+reason] {
					t.Errorf("%s exits at %.0f/s but no exit:%s slice", reason, rate, reason)
				}
			}
			if !hasPrefix(instants, "irq0x") {
				t.Error("no irq delivery instants")
			}
			if spec.VMs > 1 {
				if !hasPrefix(instants, "redirect irq0x") {
					t.Error("no redirect instants")
				}
				if !hasPrefix(coreSlices, "vm0/vcpu") || !hasPrefix(coreSlices, "vm1/vcpu") {
					t.Errorf("core tracks lack vCPU slices of both VMs: %v", coreSlices)
				}
			}
		})
	}
}

func hasPrefix(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

func TestTimelineImpliesPathTrace(t *testing.T) {
	spec := short(Full(0), WorkloadSpec{Kind: NetperfUDPSend, MsgBytes: 1024})
	spec.Warmup, spec.Duration = 100*time.Millisecond, 200*time.Millisecond
	spec.Timeline = true // PathTrace left false: Timeline implies it
	r := mustRun(t, spec)
	if len(r.PathBreakdown) == 0 {
		t.Fatal("Timeline should imply PathTrace")
	}
	if r.Timeline == nil || r.Timeline.Len() == 0 {
		t.Fatal("timeline missing")
	}
}

func TestProbesRecorded(t *testing.T) {
	r := mustRun(t, shortPath(Full(0), WorkloadSpec{Kind: NetperfUDPRecv, MsgBytes: 1024}))
	if len(r.Probes) == 0 {
		t.Fatal("no probe series recorded")
	}
	names := map[string]bool{}
	for _, s := range r.Probes {
		names[s.Name] = true
		if len(s.Points) == 0 {
			t.Fatalf("probe %s has no samples", s.Name)
		}
		last := -1.0
		for _, pt := range s.Points {
			if pt.AtSeconds <= last {
				t.Fatalf("probe %s timestamps not strictly increasing: %v then %v",
					s.Name, last, pt.AtSeconds)
			}
			last = pt.AtSeconds
		}
	}
	for _, want := range []string{"vm0.txq_avail", "vm0.vhost_backlog", "core0.runnable"} {
		if !names[want] {
			t.Fatalf("probe %q missing (got %v)", want, names)
		}
	}
}
