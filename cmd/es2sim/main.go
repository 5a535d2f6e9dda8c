// Command es2sim runs a single simulated scenario described by flags
// and prints its result as text or JSON. It is the exploratory
// companion to es2bench: sweep any knob without writing code.
//
// Examples:
//
//	es2sim -workload netperf-tcp-send -config full -quota 4 -msg 1024
//	es2sim -workload memcached -config baseline -vms 4 -vcpus 4 -json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"es2"
	"es2/internal/cliflags"
)

func main() {
	var (
		specFile = flag.String("spec", "", "load the scenario from a JSON ScenarioSpec file (scenario flags ignored; output flags still apply)")
		sloFlag  = flag.String("slo", "", "attach SLO objectives, evaluated streamingly during the run: 'default' (availability + tail-latency + goodput-floor preset, as in es2cluster) or a JSON SLOSpec file")
		loadFile = flag.String("load", "", "load an open-loop LoadSpec from a JSON file, replacing the memcached workload's closed-loop generator")
		tScale   = flag.Float64("time-scale", 0, "with an open-loop load: override the profile's time compression factor (0 keeps the spec's)")
		critpath = flag.Bool("critpath", false, "enable the causal critical-path analyzer (blame profile, tail exemplars, what-if)")
		critEx   = flag.Int("critpath-exemplars", 0, "slowest-request exemplars to retain (0 = default 8)")
		name     = flag.String("name", "es2sim", "scenario name")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		cfgName  = flag.String("config", "full", "baseline|pi|pih|full")
		quota    = flag.Int("quota", 0, "hybrid quota (0 = per-protocol default)")
		workload = flag.String("workload", "netperf-tcp-send", "workload kind (see es2.WorkloadKind)")
		msg      = flag.Int("msg", 1024, "netperf message size in bytes")
		threads  = flag.Int("threads", 1, "concurrent netperf threads")
		window   = flag.Int("window", 0, "TCP window in segments (0 = default)")
		connRate = flag.Float64("connrate", 1000, "httperf connections per second")
		conc     = flag.Int("concurrency", 0, "closed-loop concurrency (0 = default)")
		vms      = flag.Int("vms", 1, "number of VMs")
		vcpus    = flag.Int("vcpus", 1, "vCPUs per VM")
		vmCores  = flag.Int("vmcores", 0, "cores shared by VMs (0 = vcpus)")
		queues   = flag.Int("queues", 1, "virtio-net queue pairs per VM")
		direct   = flag.Bool("direct", false, "SR-IOV direct assignment (exit-less doorbells)")
		sidecore = flag.Bool("sidecore", false, "ELVIS-style dedicated-core polling back-end")
		pathOn   = flag.Bool("path", false, "enable event-path spectra (per-stage latency breakdown in the critical-path stages)")
		timeline = flag.String("timeline", "", "write a Perfetto/Chrome-trace JSON timeline to FILE (implies -path)")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulated cores to FILE (go tool pprof / speedscope)")
		folded   = flag.String("folded", "", "write folded flamegraph stacks of the simulated cores to FILE")
		coalCnt  = flag.Int("coalesce-count", 0, "RX interrupt moderation: signal after N packets (0 = off)")
		coalTim  = flag.Duration("coalesce-timer", 0, "RX interrupt moderation: flush timer (0 = off)")
		sendRate = flag.Float64("sendrate", 0, "pace the UDP sender at N pkts/s (0 = CPU speed)")
		pingIvl  = flag.Duration("ping-interval", 0, "ping probe interval (0 = default)")
		svcCost  = flag.Duration("service-cost", 0, "server per-request CPU cost (0 = default)")
		dur      = flag.Duration("duration", time.Second, "measurement window (simulated)")
		warmup   = flag.Duration("warmup", 300*time.Millisecond, "warm-up (simulated)")
		asJSON   = flag.Bool("json", false, "print the result as JSON")
		telDir   = flag.String("telemetry-dir", "", "write windowed telemetry to DIR/metrics.prom and DIR/windows.csv")
		metrics  = flag.String("metrics", "", "write the OpenMetrics exposition to FILE")
		telWin   = flag.Duration("telemetry-window", 0, "telemetry sampling window, simulated (0 = 10ms default)")

		check    = flag.Bool("check", false, "enable the runtime invariant checker (also: ES2_CHECK=1)")
		engStats = flag.Bool("engine-stats", false, "measure the simulator itself (wall time, events/sec, heap, per-subsystem cost) and print the report")
	)
	faultFlags := cliflags.RegisterFaultFlags(flag.CommandLine)
	flag.Parse()
	out := outputFlags{
		timeline: *timeline, cpuprof: *cpuprof, folded: *folded,
		telDir: *telDir, metrics: *metrics, telWin: *telWin,
		critpath: *critpath, critEx: *critEx, asJSON: *asJSON,
		engineStats: *engStats, slo: *sloFlag,
		loadFile: *loadFile, timeScale: *tScale,
	}

	if *specFile != "" {
		spec, err := es2.LoadScenarioSpec(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
			os.Exit(1)
		}
		run(spec, out)
		return
	}

	var cfg es2.Config
	switch *cfgName {
	case "baseline":
		cfg = es2.Baseline()
	case "pi":
		cfg = es2.PIOnly()
	case "pih":
		cfg = es2.PIH(*quota)
	case "full":
		cfg = es2.Full(*quota)
	default:
		fmt.Fprintf(os.Stderr, "es2sim: unknown config %q\n", *cfgName)
		os.Exit(2)
	}

	kinds := map[string]es2.WorkloadKind{
		"idle":             es2.IdleBurn,
		"netperf-tcp-send": es2.NetperfTCPSend,
		"netperf-tcp-recv": es2.NetperfTCPRecv,
		"netperf-udp-send": es2.NetperfUDPSend,
		"netperf-udp-recv": es2.NetperfUDPRecv,
		"ping":             es2.Ping,
		"memcached":        es2.Memcached,
		"apache":           es2.Apache,
		"httperf":          es2.Httperf,
	}
	kind, ok := kinds[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "es2sim: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	faultSpec, err := faultFlags.Spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
		os.Exit(2)
	}

	spec := es2.ScenarioSpec{
		Name: *name, Seed: *seed, Config: cfg,
		Workload: es2.WorkloadSpec{
			Kind: kind, MsgBytes: *msg, Threads: *threads, Window: *window,
			ConnRate: *connRate, Concurrency: *conc,
			SendRatePPS: *sendRate, PingInterval: *pingIvl, ServiceCost: *svcCost,
		},
		VMs: *vms, VCPUs: *vcpus, VMCores: *vmCores, Queues: *queues,
		CoalesceCount: *coalCnt, CoalesceTimer: *coalTim,
		DirectAssign: *direct, Sidecore: *sidecore,
		PathTrace: *pathOn,
		Warmup:    *warmup, Duration: *dur,
		Check:  *check,
		Faults: faultSpec,
	}
	run(spec, out)
}

// outputFlags are the flags that select outputs rather than describe
// the scenario; they apply on top of a -spec file too.
type outputFlags struct {
	timeline, cpuprof, folded string
	telDir, metrics           string
	telWin                    time.Duration
	critpath                  bool
	critEx                    int
	asJSON                    bool
	engineStats               bool
	slo                       string
	loadFile                  string
	timeScale                 float64
}

func run(spec es2.ScenarioSpec, out outputFlags) {
	sloSpec, err := cliflags.ResolveSLO(out.slo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
		os.Exit(1)
	}
	if out.slo != "" {
		spec.SLO = sloSpec
	}
	loadSpec, err := cliflags.Resolve(out.loadFile, es2.LoadLoadSpec, es2.LoadSpec{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
		os.Exit(1)
	}
	if out.loadFile != "" {
		spec.Load = loadSpec
	}
	if out.timeScale > 0 && spec.Load.Enabled() {
		spec.Load.Profile.TimeScale = out.timeScale
	}
	spec.Timeline = spec.Timeline || out.timeline != ""
	spec.CPUProfile = spec.CPUProfile || out.cpuprof != "" || out.folded != ""
	spec.Telemetry = spec.Telemetry || out.telDir != "" || out.metrics != "" || out.telWin > 0
	if out.telWin > 0 {
		spec.TelemetryWindow = out.telWin
	}
	spec.CritPath = spec.CritPath || out.critpath
	if out.critEx > 0 {
		spec.CritPathExemplars = out.critEx
	}
	spec.EngineStats = spec.EngineStats || out.engineStats

	res, err := es2.Run(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
		os.Exit(1)
	}

	writeFile := func(path, what string, write func(io.Writer) error) {
		if err := cliflags.WriteFile(path, write); err != nil {
			fmt.Fprintf(os.Stderr, "es2sim: writing %s: %v\n", what, err)
			os.Exit(1)
		}
	}
	if out.timeline != "" {
		writeFile(out.timeline, "timeline", res.Timeline.WriteJSON)
	}
	if out.cpuprof != "" {
		writeFile(out.cpuprof, "cpu profile", res.CPUProfile.WritePprof)
	}
	if out.folded != "" {
		writeFile(out.folded, "folded stacks", res.CPUProfile.WriteFolded)
	}
	if out.telDir != "" {
		if err := os.MkdirAll(out.telDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "es2sim: creating telemetry dir: %v\n", err)
			os.Exit(1)
		}
		rec := res.TelemetryRecorder
		writeFile(filepath.Join(out.telDir, "metrics.prom"), "telemetry exposition", rec.WriteOpenMetrics)
		writeFile(filepath.Join(out.telDir, "windows.csv"), "telemetry windows", rec.WriteCSV)
	}
	if out.metrics != "" {
		writeFile(out.metrics, "metrics exposition", res.TelemetryRecorder.WriteOpenMetrics)
	}

	if out.asJSON {
		if err := cliflags.WriteJSON("-", res); err != nil {
			fmt.Fprintf(os.Stderr, "es2sim: %v\n", err)
			os.Exit(1)
		}
		// The engine report is machine-dependent and excluded from the
		// deterministic JSON surface; print it on stderr instead.
		if res.EngineReport != nil {
			fmt.Fprint(os.Stderr, res.EngineReport.Render())
		}
		return
	}

	fmt.Printf("scenario   %s  (config %s, workload %s)\n", res.Name, res.Config, spec.Workload.Kind)
	fmt.Printf("exits/s    total=%.0f  io=%.0f  extintr=%.0f  apic=%.0f  other=%.0f\n",
		res.TotalExitRate, res.IOExitRate,
		res.ExitRates["ExternalInterrupt"], res.ExitRates["APICAccess"], res.ExitRates["Other"])
	fmt.Printf("TIG        %.1f%%\n", 100*res.TIG)
	fmt.Printf("interrupts %.0f/s delivered, %.0f%% redirected\n", res.DevIRQRate, 100*res.RedirectRate)
	if res.ThroughputMbps > 0 {
		fmt.Printf("throughput %.1f Mbps (%.0f pkt/s)\n", res.ThroughputMbps, res.PktRate)
	}
	if res.OpsPerSec > 0 {
		fmt.Printf("ops        %.0f/s\n", res.OpsPerSec)
	}
	if res.MeanLatency > 0 {
		fmt.Printf("latency    mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
			res.MeanLatency, res.P50Latency, res.P90Latency,
			res.P99Latency, res.P999Latency, res.MaxLatency)
	}
	if res.Drops > 0 {
		fmt.Printf("drops      %d\n", res.Drops)
	}
	if l := res.Load; l != nil {
		fmt.Print(l.Render())
	}
	if res.VhostCPU > 0 {
		fmt.Printf("vhost CPU  %.1f%%\n", 100*res.VhostCPU)
	}
	if f := res.Faults; f != nil {
		fmt.Printf("faults     %d injected: drops=%d dups=%d kicks=%d signals=%d stalls=%d pi=%d storms=%d\n",
			f.Injected, f.WireDrops, f.WireDups, f.LostKicks, f.LostSignals,
			f.VhostStalls, f.PIOutages, f.PreemptStorms)
		fmt.Printf("recovery   retransmits=%d watchdog=%d repolls=%d pi-fallbacks=%d\n",
			f.Retransmits, f.WatchdogFires, f.VhostRePolls, f.PIFallbacks)
	}
	if res.InvariantChecks > 0 {
		fmt.Printf("invariants %d checks passed\n", res.InvariantChecks)
	}
	if len(res.PathBreakdown) > 0 {
		fmt.Printf("event path stage breakdown:\n")
		fmt.Printf("  %-12s %10s %12s %12s %12s\n", "stage", "count", "mean", "p50", "p99")
		for _, st := range res.PathBreakdown {
			fmt.Printf("  %-12s %10d %12v %12v %12v\n", st.Stage, st.Count, st.Mean, st.P50, st.P99)
		}
	}
	if len(res.LatencyProfiles) > 0 {
		fmt.Printf("latency spectrum:\n")
		fmt.Printf("  %-14s %-10s %10s %12s %12s %12s %12s %12s\n",
			"class", "label", "count", "p50", "p90", "p99", "p99.9", "max")
		for _, p := range res.LatencyProfiles {
			fmt.Printf("  %-14s %-10s %10d %12v %12v %12v %12v %12v\n",
				p.Class, p.Label, p.Count, p.P50, p.P90, p.P99, p.P999, p.Max)
		}
	}
	if res.CriticalPath != nil {
		printCritPath(res.CriticalPath)
	}
	if res.SLO != nil {
		fmt.Print(res.SLO.Render())
	}
	if ti := res.Telemetry; ti != nil {
		fmt.Printf("telemetry  %d series over %d windows of %gms\n", ti.Series, ti.Windows, ti.WindowMs)
	}
	if res.EngineReport != nil {
		fmt.Print(res.EngineReport.Render())
	}
	if res.CPUReport != nil {
		fmt.Print(res.CPUReport.Render())
	}
	if out.timeline != "" {
		fmt.Printf("timeline   %s (%d events; open in ui.perfetto.dev)\n", out.timeline, res.Timeline.Len())
	}
	if out.cpuprof != "" {
		fmt.Printf("cpuprofile %s (go tool pprof -top %s)\n", out.cpuprof, out.cpuprof)
	}
}

// printCritPath renders the causal critical-path report: blame
// profile, tail exemplars, and the what-if grid.
func printCritPath(cp *es2.CriticalPath) {
	fmt.Printf("critical path: %d requests, mean=%v p50=%v p99=%v max=%v (stage-sum err %.2g)\n",
		cp.Requests,
		time.Duration(cp.MeanNs), time.Duration(cp.P50Ns),
		time.Duration(cp.P99Ns), time.Duration(cp.MaxNs), cp.MaxSumRelErr)
	fmt.Printf("  %-14s %-4s %10s %12s %12s %7s\n", "stage", "host", "count", "total", "mean", "share")
	for _, s := range cp.Stages {
		fmt.Printf("  %-14s %-4s %10d %12v %12v %6.1f%%\n",
			s.Stage, "-", s.Count, time.Duration(s.TotalNs), time.Duration(s.MeanNs), 100*s.Share)
	}
	for _, s := range cp.HostStages {
		fmt.Printf("  %-14s %-4s %10d %12v %12v %6.1f%%\n",
			s.Stage, s.Host, s.Count, time.Duration(s.TotalNs), time.Duration(s.MeanNs), 100*s.Share)
	}
	if len(cp.WhatIf) > 0 {
		fmt.Printf("what-if (stage %.0f%% faster):\n", 100*es2.DefaultWhatIfSpeedup)
		fmt.Printf("  %-14s %12s %12s %12s\n", "stage", "dP50", "dP99", "dMean")
		for _, w := range cp.WhatIf {
			fmt.Printf("  %-14s %12v %12v %12v\n", w.Stage,
				time.Duration(w.P50DeltaNs), time.Duration(w.P99DeltaNs), time.Duration(w.MeanDeltaNs))
		}
	}
	for i, ex := range cp.Exemplars {
		fmt.Printf("exemplar %d: flow %d seq %d e2e=%v start=%v",
			i, ex.Flow, ex.Seq, time.Duration(ex.E2ENs), time.Duration(ex.StartNs))
		if ex.FabricHops > 0 {
			fmt.Printf(" hops=%d", ex.FabricHops)
		}
		fmt.Println()
		for _, m := range ex.Marks {
			host := m.Host
			if host == "" {
				host = "-"
			}
			fmt.Printf("  %-14s %-4s at=%-14v +%v\n", m.Stage, host, time.Duration(m.AtNs), time.Duration(m.DurNs))
		}
	}
}
