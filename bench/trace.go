package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"

	"es2"
	"es2/experiments"
)

// layerUnits lists every per-layer metric a traced run reports, with
// its unit, in the order it is printed.
var layerUnits = func() []metricUnit {
	out := []metricUnit{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.heap_mean_depth", "count"},
		{"sim.heap_max_depth", "count"},
		{"sim.allocs_per_event", "allocs/event"},
		{"sim.bytes_per_event", "B/event"},
		{"sched.wall_share", "ratio"},
		{"vmm.exits", "count"},
		{"vmm.io_exits", "count"},
		{"core.redirects", "count"},
		{"vmm.wall_share", "ratio"},
		{"virtio.wall_share", "ratio"},
		{"vhost.wall_share", "ratio"},
		{"guest.wall_share", "ratio"},
		{"netsim.pkts", "count"},
		{"netsim.wall_share", "ratio"},
		{"fabric.forwarded", "count"},
		{"fabric.wall_share", "ratio"},
		{"loadgen.offered", "count"},
		{"workloads.ops", "count"},
		{"workloads.wall_share", "ratio"},
		{"es2.run_s", "s"},
		{"es2.engine_s", "s"},
		{"es2.self_s", "s"},
		{"es2.encode_s", "s"},
		{"es2.setup_alloc_mb", "MB"},
		{"gc.pause_s", "s"},
		{"gc.cycles", "count"},
		{"gc.alloc_mb", "MB"},
		{"bench.trace_overhead", "ratio"},
	}
	for _, m := range micros {
		out = append(out, metricUnit{m.ns, "ns"})
		if m.allocs != "" {
			out = append(out, metricUnit{m.allocs, "allocs/op"})
		}
	}
	for _, o := range observers {
		out = append(out, metricUnit{"obs." + o.name + ".overhead", "ratio"})
	}
	return out
}()

// wallShareLayers are the packages whose sampled callback wall share
// is reported. enginestats charges each sampled callback to the package
// that scheduled the event, not the one whose code ran longest.
var wallShareLayers = []string{"sched", "vmm", "virtio", "vhost", "guest", "netsim", "fabric", "workloads"}

// measureLayers is the traced run of one workload: the warm-up, one
// pass running every scenario plain and with engine stats (their time
// ratio is the trace overhead), the set-up builds, every layer
// microbenchmark and the observer on/off pairs. The workload's spans go
// to <out>/trace-<workload>.json.
func measureLayers(w workload, cfg config, out io.Writer) (result, error) {
	fmt.Fprintf(out, "workload %s (seed %d, traced): %s\n", w.name, cfg.seed, w.why)
	tr := newTracer()
	root := tr.begin("workload:"+w.name, 0, 0)
	var t tally
	warm := runPass(w.warmup, tr, "warm-up", root)
	t.add(warm, nil)
	// Each scenario runs plain and with engine stats back to back, the
	// order alternating, so the two sides see the same machine speed.
	var pairs []scenario
	for i, sc := range w.scenarios {
		first, second := sc, sc.withStats()
		if i%2 == 1 {
			first, second = second, first
		}
		pairs = append(pairs, first, second)
	}
	runtime.GC()
	both := runPass(pairs, tr, "pass", root)
	var plain, traced pass
	for i, o := range both.outcomes {
		side := &plain
		withStats := i%2 == 1 // second of its pair...
		if i/2%2 == 1 {
			withStats = !withStats // ...unless the pair was swapped
		}
		if withStats {
			side = &traced
			if o.err == nil && (o.engine == nil || o.engine.EventsFired == 0) {
				o.err = fmt.Errorf("%s: no events fired", o.name)
			}
		}
		side.outcomes = append(side.outcomes, o)
		side.times = append(side.times, both.times[i])
	}
	ref := digests(plain)
	t.add(plain, ref)
	// Engine stats stay outside Result's JSON, so the digests must match.
	t.add(traced, ref)
	setup := measureSetup(w.scenarios, cfg.setupBuilds, tr, root, &t)
	tr.end(root)

	m := engineMetrics(traced)
	setupMB := make([]float64, len(setup))
	for i, s := range setup {
		setupMB[i] = s.allocMB
	}
	m["es2.setup_alloc_mb"] = median(setupMB)
	m["bench.trace_overhead"] = traced.calibrated()/plain.calibrated() - 1
	for _, mb := range micros {
		r := runMicro(mb, cfg.seed, cfg.microBatches)
		m[mb.ns] = r.nsPerOp
		if mb.allocs != "" {
			m[mb.allocs] = r.allocsPerOp
		}
	}
	obs, err := observerOverheads(cfg, &t)
	if err != nil {
		return result{}, err
	}
	for k, v := range obs {
		m[k] = v
	}
	path := filepath.Join(cfg.out, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metric, len(layerUnits))}
	for _, u := range layerUnits {
		res.Metrics[u.name] = metric{m[u.name], u.unit}
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", u.name, m[u.name], u.unit)
	}
	for _, e := range t.errors {
		fmt.Fprintln(out, "  failed:", e)
	}
	fmt.Fprintf(out, "  %-30s %s\n", "result_sha256", passDigest(plain))
	fmt.Fprintf(out, "  spans: %s (%d)\n", path, len(tr.spans))
	return res, nil
}

// engineMetrics sums the engine reports, simulated counters and
// MemStats deltas of the engine-stats runs.
func engineMetrics(p pass) map[string]float64 {
	m := map[string]float64{}
	var events, pushes, mallocs, allocBytes uint64
	var depthSum float64
	var engineNs, sampledNs int64
	shareNs := map[string]int64{}
	for _, o := range p.outcomes {
		m["es2.run_s"] += o.run.Seconds()
		m["es2.encode_s"] += o.encode.Seconds()
		m["gc.pause_s"] += float64(o.mem1.PauseTotalNs-o.mem0.PauseTotalNs) / 1e9
		m["gc.cycles"] += float64(o.mem1.NumGC - o.mem0.NumGC)
		m["gc.alloc_mb"] += float64(o.mem1.TotalAlloc-o.mem0.TotalAlloc) / (1 << 20)
		if e := o.engine; e != nil {
			events += e.EventsFired
			engineNs += e.WallNs
			pushes += e.Heap.Pushes
			depthSum += e.Heap.MeanDepth * float64(e.Heap.Pushes)
			m["sim.heap_max_depth"] = max(m["sim.heap_max_depth"], float64(e.Heap.MaxDepth))
			mallocs += e.Mallocs
			allocBytes += e.AllocBytes
			for _, s := range e.Subsystems {
				shareNs[s.Name] += s.WallNs
				sampledNs += s.WallNs
			}
		}
		var r *es2.Result
		switch res := o.res.(type) {
		case *es2.Result:
			r = res
			m["netsim.pkts"] += float64(res.TxPkts + res.RxPkts)
		case *es2.ClusterResult:
			r = res.Aggregate
			if res.Fabric != nil {
				m["fabric.forwarded"] += float64(res.Fabric.Forwarded)
			}
			if res.Load != nil {
				m["loadgen.offered"] += float64(res.Load.Offered)
			}
		}
		if r == nil {
			continue
		}
		win := r.MeasuredSeconds
		m["vmm.exits"] += r.TotalExitRate * win
		m["vmm.io_exits"] += r.IOExitRate * win
		m["core.redirects"] += r.RedirectRate * r.DevIRQRate * win
		m["workloads.ops"] += r.OpsPerSec * win
	}
	m["sim.events"] = float64(events)
	m["es2.engine_s"] = float64(engineNs) / 1e9
	m["es2.self_s"] = m["es2.run_s"] - m["es2.engine_s"]
	if engineNs > 0 {
		m["sim.events_per_s"] = float64(events) / (float64(engineNs) / 1e9)
	}
	if pushes > 0 {
		m["sim.heap_mean_depth"] = depthSum / float64(pushes)
	}
	if events > 0 {
		m["sim.allocs_per_event"] = float64(mallocs) / float64(events)
		m["sim.bytes_per_event"] = float64(allocBytes) / float64(events)
	}
	if sampledNs > 0 {
		for _, name := range wallShareLayers {
			m[name+".wall_share"] = float64(shareNs[name]) / float64(sampledNs)
		}
	}
	return m
}

// observerPairs and observerScale size the observer on/off runs: rack1
// PI+H+R shrunk by observerScale, in observerPairs alternating pairs per
// observer. At scale 4 the 70 runs took about 45s on a 2-vCPU box; scale
// 8 keeps a whole traced run near 25s.
const (
	observerPairs = 5
	observerScale = 8
)

// observers are the optional observers whose cost is measured, each
// switched on by editing the spec.
var observers = []struct {
	name string
	on   func(*es2.ClusterSpec)
}{
	{"path_trace", func(s *es2.ClusterSpec) { s.PathTrace = true }},
	{"critpath", func(s *es2.ClusterSpec) { s.CritPath = true }},
	{"cpu_profile", func(s *es2.ClusterSpec) { s.CPUProfile = true }},
	{"telemetry", func(s *es2.ClusterSpec) { s.Telemetry = true }},
	{"slo", func(s *es2.ClusterSpec) { s.SLO = experiments.DefaultSLO() }},
	{"engine_stats", func(s *es2.ClusterSpec) { s.EngineStats = true }},
	{"check", func(s *es2.ClusterSpec) { s.Check = true }},
}

// observerOverheads reports obs.<name>.overhead: the median over pairs
// of on-time over off-time, minus 1. Pairs alternate which side runs
// first. Off runs must all encode identically.
func observerOverheads(cfg config, t *tally) (map[string]float64, error) {
	var base *es2.ClusterSpec
	for _, s := range experiments.ScaleCluster(experiments.Rack1(), cfg.obsScale).Specs {
		if s.Name == "rack1/PI+H+R" {
			s := s
			s.Seed = cfg.seed
			base = &s
		}
	}
	if base == nil {
		return nil, errors.New("rack1 has no PI+H+R config")
	}
	off := scenario{cluster: base}
	ref := runPass([]scenario{off}, nil, "", 0) // warm-up and reference encoding
	t.add(ref, nil)
	out := map[string]float64{}
	for _, ob := range observers {
		on := off.with(nil, ob.on)
		ratios := make([]float64, 0, cfg.obsPairs)
		for i := 0; i < cfg.obsPairs; i++ {
			// Alternate which side runs first; only the off run must
			// encode like the reference.
			order := []scenario{off, on}
			if i%2 == 1 {
				order = []scenario{on, off}
			}
			p := runPass(order, nil, "", 0)
			offAt := i % 2
			for k, o := range p.outcomes {
				t.attempted++
				switch {
				case o.err != nil:
					t.fail(o.err.Error())
				case k == offAt && string(o.json) != string(ref.outcomes[0].json):
					t.fail(o.name + ": result differs from the first off run")
				}
			}
			if p.outcomes[0].err == nil && p.outcomes[1].err == nil {
				ratios = append(ratios, p.times[1-offAt]/p.times[offAt])
			}
		}
		out["obs."+ob.name+".overhead"] = median(ratios) - 1
	}
	return out, nil
}
