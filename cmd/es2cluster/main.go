// Command es2cluster runs the rack-scale cluster scenarios: many
// simulated hosts — each with its own cores, scheduler, vhost back-end
// and VMs — joined by one switch fabric, with closed-loop RPC flows
// load-balanced across the server VMs.
//
// Usage:
//
//	es2cluster [-exp all|rack1 | -spec FILE] [-parallel N] [-seed S]
//	           [-scale F] [-list] [-json FILE] [-telemetry-dir DIR] [-check]
//	           [-engine-stats] [-soak N] [-progress]
//	           [-load rack1-day|FILE] [-time-scale F]
//	           [-slo default|FILE] [-slo-log FILE]
//	           [-serve ADDR [-serve-wait D]]
//
// -spec runs one JSON ClusterSpec file as a one-scenario experiment
// (id "spec") through the same flag overlays and run loop as the named
// experiments, and prints its summary in place of an experiment table.
//
// -scale F (> 1) divides each scenario's flow count and measurement
// window by F, for smoke runs on constrained CI; a -spec file runs
// unscaled. -engine-stats prints
// the simulator's own wall-clock performance report per scenario and
// runs the scenarios one at a time, so each report's memory figures
// are its own;
// -progress emits a per-scenario (and per-seed, under -soak) stderr
// heartbeat with wall time and events/sec. -soak reports through its
// -json file only: it exits 2 on -telemetry-dir, -critpath-dir,
// -metrics or -slo-log, which it would not write.
//
// -load replaces every scenario's closed-loop flows with an open-loop
// load generator (the 'rack1-day' datacenter-day preset or a JSON
// LoadSpec file); -time-scale overrides its profile's day-to-window
// compression factor.
//
// -slo attaches service-level objectives to every scenario and reports
// the streaming burn-rate alert timeline; -slo-log writes the merged
// fault/alert timeline as JSONL. -serve exposes the live ops plane —
// real-process Prometheus /metrics, /healthz, /progress JSON and
// /debug/pprof — while the scenarios run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"es2"
	"es2/experiments"
	"es2/internal/cliflags"
	"es2/internal/ops"
)

func main() {
	expFlag := flag.String("exp", "all", "cluster experiment id or 'all'")
	specFile := flag.String("spec", "", "run one JSON ClusterSpec file instead of the named experiments")
	parallel := flag.Int("parallel", 0, "parallel scenario runs (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	scaleFlag := flag.Float64("scale", 1, "shrink factor: divide flows and measurement window by F (CI smoke)")
	telemetryDir := flag.String("telemetry-dir", "", "write one OpenMetrics exposition (.prom) and windowed CSV (.csv) per scenario into DIR")
	metricsOut := flag.String("metrics", "", "write a single OpenMetrics exposition to FILE (the run must produce exactly one scenario)")
	critpath := flag.Bool("critpath", false, "enable the causal critical-path analyzer on every scenario")
	critDir := flag.String("critpath-dir", "", "write one critical-path JSON per scenario into DIR (implies -critpath)")
	jsonOut := flag.String("json", "", "write all cluster results as machine-readable JSON to FILE ('-' for stdout)")
	check := flag.Bool("check", false, "enable the runtime invariant checker on every host (also: ES2_CHECK=1)")
	chaosFlag := flag.String("chaos", "", "attach a chaos timeline to every scenario: 'rack1' (built-in host-crash + link-flap preset) or a JSON ChaosSpec file")
	soak := flag.Int("soak", 0, "chaos-soak mode: run each scenario N times on consecutive seeds with the invariant checker forced on, asserting every fault recovers and every flow is accounted for; reports through -json only, and refuses -telemetry-dir, -critpath-dir, -metrics and -slo-log")
	progress := flag.Bool("progress", false, "print one stderr heartbeat line per scenario (per seed under -soak) with wall time and events/sec, so long runs are not silent")
	loadFlag := flag.String("load", "", "attach an open-loop load to every scenario, replacing closed-loop flows: 'rack1-day' (built-in datacenter-day preset) or a JSON LoadSpec file")
	timeScale := flag.Float64("time-scale", 0, "with an open-loop load: override the profile's time compression factor (modeled seconds per simulated second; 0 keeps the spec's, which defaults to auto-fit)")
	sloFlag := flag.String("slo", "", "attach SLO objectives to every scenario: 'default' (availability + tail-latency + goodput-floor preset) or a JSON SLOSpec file")
	sloLog := flag.String("slo-log", "", "write the merged fault/alert timeline as JSONL to FILE ('-' for stdout; the run must produce exactly one scenario)")
	serveFlag := flag.String("serve", "", "serve the live ops plane on ADDR (e.g. :9090): Prometheus /metrics, /healthz, /progress JSON, /debug/pprof")
	serveWait := flag.Duration("serve-wait", 0, "with -serve: keep serving this long after the runs finish, so scrapers can collect final state")
	engStats := flag.Bool("engine-stats", false, "measure the simulator itself (wall time, events/sec, heap, per-subsystem cost) and print the report per scenario; scenarios then run one at a time, since the report's memory figures are process-wide")
	list := flag.Bool("list", false, "list cluster experiment ids and exit")
	faultFlags := cliflags.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	if *engStats {
		// Concurrent scenarios would fold their neighbours' allocations
		// and GC pauses into each report's memory line.
		*parallel = 1
	}

	if *list {
		for _, e := range experiments.ClusterExperiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *soak > 0 {
		if err := soakExports(*telemetryDir, *critDir, *metricsOut, *sloLog); err != nil {
			fail(2, err)
		}
	}
	for _, d := range []string{*telemetryDir, *critDir} {
		if d != "" {
			if err := os.MkdirAll(d, 0o755); err != nil {
				fail(1, err)
			}
		}
	}

	faultSpec, err := faultFlags.Spec()
	if err != nil {
		fail(2, err)
	}
	chaosSpec, err := cliflags.Resolve(*chaosFlag, es2.LoadChaosSpec, experiments.DefaultChaos(), "rack1", "default")
	if err != nil {
		fail(1, err)
	}
	loadSpec, err := cliflags.Resolve(*loadFlag, es2.LoadLoadSpec, experiments.DefaultLoad(), "rack1-day", "daycycle")
	if err != nil {
		fail(1, err)
	}
	sloSpec, err := cliflags.ResolveSLO(*sloFlag)
	if err != nil {
		fail(1, err)
	}

	// The ops plane serves live process state over HTTP for the whole
	// run; the sim itself never sees it, so serving cannot perturb
	// results. On a normal exit it lingers (-serve-wait) so external
	// scrapers can collect final state, then shuts the listener down.
	var plane *ops.Server
	if *serveFlag != "" {
		p, err := ops.Serve(*serveFlag)
		if err != nil {
			fail(1, err)
		}
		plane = p
		fmt.Fprintf(os.Stderr, "es2cluster: ops plane on http://%s (/metrics /healthz /progress /debug/pprof)\n", p.Addr())
		defer func() {
			if *serveWait > 0 {
				fmt.Fprintf(os.Stderr, "es2cluster: runs finished; ops plane stays up for %v\n", *serveWait)
				time.Sleep(*serveWait)
			}
			p.Close()
		}()
	}

	// A -spec file is a one-scenario experiment that -scale leaves
	// whole.
	var exps []experiments.ClusterExperiment
	scale := *scaleFlag
	if *specFile != "" {
		spec, err := es2.LoadClusterSpec(*specFile)
		if err != nil {
			fail(1, err)
		}
		exps, scale = []experiments.ClusterExperiment{{ID: "spec", Title: spec.Name, Specs: []es2.ClusterSpec{spec}}}, 1
	} else if *expFlag == "all" {
		exps = experiments.ClusterExperiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := experiments.ClusterByID(strings.TrimSpace(id))
			if !ok {
				fail(2, fmt.Errorf("unknown experiment %q (use -list)", id))
			}
			exps = append(exps, e)
		}
	}

	// Overlay the flags onto every scenario, before scaling so chaos
	// timelines shrink with the window.
	for ei := range exps {
		for i := range exps[ei].Specs {
			s := &exps[ei].Specs[i]
			if *chaosFlag != "" {
				s.Chaos = chaosSpec
			}
			if faultSpec.Enabled() {
				s.Faults = faultSpec
			}
			if *sloFlag != "" {
				s.SLO = sloSpec
			}
			if *loadFlag != "" {
				s.Workload.Load = loadSpec
			}
			if *timeScale > 0 && s.Workload.Load.Enabled() {
				s.Workload.Load.Profile.TimeScale = *timeScale
			}
			if *seed != 0 {
				s.Seed = *seed
			}
			s.Telemetry = s.Telemetry || *telemetryDir != "" || *metricsOut != ""
			s.CritPath = s.CritPath || *critpath || *critDir != ""
			s.Check = s.Check || *check
			s.EngineStats = s.EngineStats || *engStats || *progress || plane != nil
		}
		exps[ei] = experiments.ScaleCluster(exps[ei], scale)
	}

	if *soak > 0 {
		runSoak(exps, *soak, *parallel, *jsonOut, *progress, plane)
		return
	}

	report := jsonReport{Schema: "es2cluster/v1", Seed: *seed, Scale: scale}
	var allResults []*es2.ClusterResult
	for _, e := range exps {
		start := time.Now()
		results, err := runScenarios(e.Specs, *parallel, *progress, plane)
		if err != nil {
			if *specFile == "" {
				err = fmt.Errorf("%s failed: %w", e.ID, err)
			}
			fail(1, err)
		}
		allResults = append(allResults, results...)
		for i, r := range results {
			base := fmt.Sprintf("%s-%02d-%s", e.ID, i, cliflags.Sanitize(r.Name))
			if err := cliflags.WriteExports(base, r.TelemetryRecorder, r.CriticalPath, *telemetryDir, *critDir); err != nil {
				fail(1, err)
			}
		}
		if *jsonOut != "" {
			report.Experiments = append(report.Experiments, jsonExperiment{
				ID: e.ID, Title: e.Title, PaperClaim: e.PaperClaim, Results: results,
			})
		}
		if *specFile != "" {
			printClusterSummary(results[0])
			continue
		}
		fmt.Printf("=== %s — %s\n", e.ID, e.Title)
		fmt.Printf("    paper: %s\n\n", e.PaperClaim)
		fmt.Println(cliflags.Indent(e.Render(results), "    "))
		if *engStats {
			for _, r := range results {
				if r.EngineReport == nil {
					continue
				}
				fmt.Printf("    --- %s\n", r.Name)
				fmt.Println(cliflags.Indent(r.EngineReport.Render(), "    "))
			}
		}
		if *sloFlag != "" {
			for _, r := range results {
				if r.SLO == nil {
					continue
				}
				fmt.Printf("    --- %s\n", r.Name)
				fmt.Println(cliflags.Indent(r.SLO.Render(), "    "))
			}
		}
		if *loadFlag != "" {
			// Injected open-loop load: the experiment's own renderer
			// predates it, so print the offered-load tables here.
			for _, r := range results {
				if r.Load == nil {
					continue
				}
				fmt.Printf("    --- %s\n", r.Name)
				fmt.Println(cliflags.Indent(r.Load.Render(), "    "))
			}
		}
		fmt.Printf("    (%d scenarios in %v wall time)\n\n", len(e.Specs), time.Since(start).Round(time.Millisecond))
	}

	if *metricsOut != "" {
		if len(allResults) != 1 {
			fail(2, fmt.Errorf("-metrics needs exactly one scenario, got %d (narrow -exp or use -spec)", len(allResults)))
		}
		if err := cliflags.WriteFile(*metricsOut, allResults[0].TelemetryRecorder.WriteOpenMetrics); err != nil {
			fail(1, err)
		}
	}

	if *sloLog != "" {
		if len(allResults) != 1 {
			fail(2, fmt.Errorf("-slo-log needs exactly one scenario, got %d (narrow -exp or use -spec)", len(allResults)))
		}
		if err := writeEventLogFile(*sloLog, allResults[0]); err != nil {
			fail(1, err)
		}
	}

	if *jsonOut != "" {
		if err := cliflags.WriteJSON(*jsonOut, report); err != nil {
			fail(1, err)
		}
	}
}

// fail reports err and exits with code.
func fail(code int, err error) {
	fmt.Fprintf(os.Stderr, "es2cluster: %v\n", err)
	os.Exit(code)
}

// runScenarios is the one start-run-report step of every experiment,
// and of every soak iteration: it announces specs on the ops plane
// (nil unless -serve), runs them, and reports each finished scenario
// through its -progress heartbeat and its ops-plane update.
func runScenarios(specs []es2.ClusterSpec, parallel int, progress bool, plane *ops.Server) ([]*es2.ClusterResult, error) {
	if plane != nil {
		for i := range specs {
			plane.StartRun(specs[i].Name, int64(specs[i].Seed))
		}
	}
	results, err := es2.RunManyCluster(specs, parallel)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		progressLine(r, specs[i].Seed, progress)
		reportRun(plane, r, specs[i].Seed)
	}
	return results, nil
}

// progressLine prints the per-scenario stderr heartbeat (-progress).
func progressLine(r *es2.ClusterResult, seed uint64, on bool) {
	if !on || r.EngineReport == nil {
		return
	}
	er := r.EngineReport
	fmt.Fprintf(os.Stderr, "progress %-24s seed=%-6d wall=%v events/s=%.0f\n",
		r.Name, seed, time.Duration(er.WallNs).Round(time.Millisecond), er.EventsPerSec)
}

// reportRun folds one finished scenario into the ops plane.
func reportRun(plane *ops.Server, r *es2.ClusterResult, seed uint64) {
	if plane == nil {
		return
	}
	u := ops.RunUpdate{Name: r.Name, Seed: int64(seed)}
	if er := r.EngineReport; er != nil {
		u.EventsFired = er.EventsFired
		u.SimSeconds = er.SimSeconds
		u.WallSeconds = float64(er.WallNs) / 1e9
		u.EventsPerSec = er.EventsPerSec
	}
	if s := r.SLO; s != nil {
		u.AlertsFired = uint64(s.Fires)
		u.AlertsCleared = uint64(s.Clears)
		u.AlertsActive = uint64(s.ActiveAtEnd)
	}
	plane.FinishRun(u)
}

// writeEventLogFile writes the merged fault/alert JSONL timeline for
// one scenario ('-' for stdout).
func writeEventLogFile(path string, r *es2.ClusterResult) error {
	write := func(w io.Writer) error { return es2.WriteEventLog(w, r.SLO, r.Recovery) }
	if path == "-" {
		return write(os.Stdout)
	}
	return cliflags.WriteFile(path, write)
}

// soakExports refuses the export flags a soak cannot honour, naming
// the first one set. A soak reports through its -json file only, so
// it would make their directories and switch their recorders on in
// every run, then write nothing.
func soakExports(telemetryDir, critDir, metrics, sloLog string) error {
	for _, f := range []struct{ flag, value string }{
		{"-telemetry-dir", telemetryDir},
		{"-critpath-dir", critDir},
		{"-metrics", metrics},
		{"-slo-log", sloLog},
	} {
		if f.value != "" {
			return fmt.Errorf("-soak writes no %s output; its -json report carries each run's recovery and SLO results", f.flag)
		}
	}
	return nil
}

// runSoak is the -soak N harness: every scenario of every experiment
// runs N times on consecutive seeds, from its own, with the invariant
// checker forced on. Any run must come back with every chaos fault
// recovered (finite MTTR) and every flow completed or migrated;
// violations are reported and exit the process non-zero. Invariant
// failures themselves panic inside the run, so a clean exit here means
// zero violations of either kind. With -progress, every run also
// prints one stderr heartbeat line (seed, wall time, events/sec), so
// multi-minute soaks are never silent.
func runSoak(exps []experiments.ClusterExperiment, n, parallel int, jsonOut string, progress bool, plane *ops.Server) {
	type soakRun struct {
		Experiment      string              `json:"experiment"`
		Name            string              `json:"name"`
		Seed            uint64              `json:"seed"`
		InvariantChecks uint64              `json:"invariant_checks"`
		Recovery        *es2.RecoveryReport `json:"recovery,omitempty"`
		SLO             *es2.SLOReport      `json:"slo,omitempty"`
	}
	var runs []soakRun
	violations := 0
	bad := func(format string, args ...any) {
		violations++
		fmt.Fprintf(os.Stderr, "es2cluster: soak violation: "+format+"\n", args...)
	}
	for s := 0; s < n; s++ {
		for _, e := range exps {
			specs := make([]es2.ClusterSpec, len(e.Specs))
			copy(specs, e.Specs)
			for i := range specs {
				specs[i].Seed += uint64(s)
				specs[i].Check = true
			}
			results, err := runScenarios(specs, parallel, progress, plane)
			if err != nil {
				fail(1, fmt.Errorf("soak %s iteration %d: %w", e.ID, s, err))
			}
			for i, r := range results {
				rec := r.Recovery
				runs = append(runs, soakRun{Experiment: e.ID, Name: r.Name,
					Seed: specs[i].Seed, InvariantChecks: r.InvariantChecks,
					Recovery: rec, SLO: r.SLO})
				if specs[i].Chaos.Enabled() && rec == nil {
					bad("%s seed %d: chaos enabled but no recovery report", r.Name, specs[i].Seed)
					continue
				}
				sloNote := ""
				if s := r.SLO; s != nil {
					sloNote = fmt.Sprintf(" alerts=%d/%d", s.Fires, s.Clears)
				}
				if rec == nil {
					fmt.Printf("soak %-24s seed=%-6d checks=%d%s\n", r.Name, specs[i].Seed, r.InvariantChecks, sloNote)
					continue
				}
				for _, f := range rec.Faults {
					if f.MTTRMs < 0 {
						bad("%s seed %d: %s on %s (outage %.2fms) never recovered",
							r.Name, specs[i].Seed, f.Kind, f.Target, f.OutageMs)
					}
				}
				if rec.FlowsUnaccounted > 0 {
					bad("%s seed %d: %d flows neither completed nor failed over",
						r.Name, specs[i].Seed, rec.FlowsUnaccounted)
				}
				fmt.Printf("soak %-24s seed=%-6d checks=%d faults=%d timeouts=%d retries=%d migrated=%d avail=%.0f%%%s\n",
					r.Name, specs[i].Seed, r.InvariantChecks, len(rec.Faults),
					rec.Timeouts, rec.Retries, rec.MigratedFlows, 100*rec.Availability, sloNote)
			}
		}
	}
	if jsonOut != "" {
		type soakReport struct {
			Schema string    `json:"schema"`
			Runs   []soakRun `json:"runs"`
		}
		if err := cliflags.WriteJSON(jsonOut, soakReport{Schema: "es2cluster-soak/v1", Runs: runs}); err != nil {
			fail(1, err)
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "es2cluster: soak: %d violations across %d runs\n", violations, len(runs))
		os.Exit(1)
	}
	fmt.Printf("soak ok: %d runs, zero violations\n", len(runs))
}

// printClusterSummary renders the -spec run: aggregate figures plus
// the critical-path blame tables when enabled.
func printClusterSummary(r *es2.ClusterResult) {
	fmt.Printf("cluster    %s: hosts=%d vms=%d flows=%d window=%.3fs\n",
		r.Name, r.Hosts, r.VMs, r.Flows, r.MeasuredSeconds)
	if a := r.Aggregate; a != nil {
		fmt.Printf("aggregate  ops=%.0f/s tput=%.1fMbps mean=%v p99=%v drops=%d\n",
			a.OpsPerSec, a.ThroughputMbps, a.MeanLatency, a.P99Latency, a.Drops)
	}
	if l := r.Load; l != nil {
		fmt.Print(l.Render())
	}
	if s := r.SLO; s != nil {
		fmt.Print(s.Render())
	}
	if rec := r.Recovery; rec != nil {
		fmt.Printf("chaos      %d faults, availability %.0f%%/%d windows, degraded %.1fms (%.0f ops/s vs %.0f healthy)\n",
			len(rec.Faults), 100*rec.Availability, rec.TotalWindows,
			1e3*rec.DegradedSeconds, rec.DegradedOpsPerSec, rec.HealthyOpsPerSec)
		fmt.Printf("  %-18s %-8s %10s %10s %10s\n", "fault", "target", "start", "outage", "mttr")
		for _, f := range rec.Faults {
			mttr := "never"
			if f.MTTRMs >= 0 {
				mttr = fmt.Sprintf("%.2fms", f.MTTRMs)
			}
			fmt.Printf("  %-18s %-8s %8.2fms %8.2fms %10s\n", f.Kind, f.Target, f.StartMs, f.OutageMs, mttr)
		}
		fmt.Printf("  rpc: timeouts=%d retries=%d migrated=%d unaccounted=%d; drops: link=%d blackhole=%d\n",
			rec.Timeouts, rec.Retries, rec.MigratedFlows, rec.FlowsUnaccounted,
			rec.LinkDrops, rec.BlackholeDrops)
	}
	if er := r.EngineReport; er != nil {
		fmt.Print(er.Render())
	}
	if cp := r.CriticalPath; cp != nil {
		fmt.Printf("critical path: %d requests, mean=%v p50=%v p99=%v max=%v (stage-sum err %.2g)\n",
			cp.Requests,
			time.Duration(cp.MeanNs), time.Duration(cp.P50Ns),
			time.Duration(cp.P99Ns), time.Duration(cp.MaxNs), cp.MaxSumRelErr)
		fmt.Printf("  %-14s %-4s %10s %12s %7s\n", "stage", "host", "count", "mean", "share")
		for _, s := range cp.Stages {
			fmt.Printf("  %-14s %-4s %10d %12v %6.1f%%\n",
				s.Stage, "-", s.Count, time.Duration(s.MeanNs), 100*s.Share)
		}
		for _, s := range cp.HostStages {
			fmt.Printf("  %-14s %-4s %10d %12v %6.1f%%\n",
				s.Stage, s.Host, s.Count, time.Duration(s.MeanNs), 100*s.Share)
		}
		if len(cp.DegradedStages) > 0 {
			fmt.Printf("degraded-phase blame (%d requests completed under active chaos):\n", cp.DegradedRequests)
			for _, s := range cp.DegradedStages {
				fmt.Printf("  %-14s %-8s %10d %12v %6.1f%%\n",
					s.Stage, s.Host, s.Count, time.Duration(s.MeanNs), 100*s.Share)
			}
		}
		if len(cp.WhatIf) > 0 {
			fmt.Println("what-if (stage 50% faster):")
			fmt.Printf("  %-14s %12s %12s\n", "stage", "dP50", "dP99")
			for _, w := range cp.WhatIf {
				fmt.Printf("  %-14s %12v %12v\n", w.Stage,
					time.Duration(w.P50DeltaNs), time.Duration(w.P99DeltaNs))
			}
		}
	}
}

// jsonReport is the -json envelope ("Cluster scenarios" in
// EXPERIMENTS.md).
type jsonReport struct {
	Schema string `json:"schema"`
	// Seed is the -seed override (0 = each experiment's default seed);
	// Scale is the -scale shrink factor the run used.
	Seed        uint64           `json:"seed"`
	Scale       float64          `json:"scale"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID         string               `json:"id"`
	Title      string               `json:"title"`
	PaperClaim string               `json:"paper_claim"`
	Results    []*es2.ClusterResult `json:"results"`
}
