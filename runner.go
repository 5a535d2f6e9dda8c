package es2

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"es2/internal/causal"
	"es2/internal/enginestats"
	"es2/internal/faults"
	"es2/internal/guest"
	"es2/internal/loadgen"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/slo"
	"es2/internal/trace"
	"es2/internal/vhost"
	"es2/internal/vmm"
	"es2/internal/workloads"
)

// withDefaults fills zero fields with kind-appropriate defaults.
func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.VMs <= 0 {
		s.VMs = 1
	}
	hostDefaults(s.VMs, &s.VCPUs, &s.VMCores, &s.VhostCores, &s.Queues)
	if s.Warmup <= 0 {
		s.Warmup = 300 * time.Millisecond
	}
	if s.Duration <= 0 {
		s.Duration = time.Second
	}
	w := &s.Workload
	if w.MsgBytes <= 0 {
		w.MsgBytes = 1024
	}
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.Window <= 0 {
		w.Window = 128
	}
	if w.UDPRatePPS <= 0 {
		w.UDPRatePPS = 450_000
	}
	if w.PingInterval <= 0 {
		w.PingInterval = 100 * time.Millisecond
	}
	if w.Concurrency <= 0 {
		switch w.Kind {
		case Memcached:
			w.Concurrency = 256
		default:
			w.Concurrency = 16
		}
	}
	if w.Conns <= 0 {
		w.Conns = 16
	}
	if w.PageBytes <= 0 {
		if w.Kind == Httperf {
			w.PageBytes = 1024
		} else {
			w.PageBytes = 8192
		}
	}
	if w.ConnRate <= 0 {
		w.ConnRate = 1000
	}
	if w.ServiceCost <= 0 {
		switch w.Kind {
		case Memcached:
			w.ServiceCost = 6 * time.Microsecond
		case Apache:
			w.ServiceCost = 15 * time.Microsecond
		default:
			w.ServiceCost = 10 * time.Microsecond
		}
	}
	observerDefaults(s.Telemetry, &s.TelemetryWindow, s.CritPath, &s.CritPathExemplars)
	s.SLO = s.SLO.WithDefaults()
	if s.Load.Enabled() {
		s.Load = s.Load.WithDefaults()
	}
	// The paper selects quota 4 for TCP streams and 8 for UDP streams
	// (Section VI-B); default accordingly when hybrid is on.
	if s.Config.Hybrid && s.Config.Quota <= 0 {
		switch w.Kind {
		case NetperfUDPSend, NetperfUDPRecv:
			s.Config.Quota = 8
		default:
			s.Config.Quota = 4
		}
	}
	return s
}

// hostDefaults fills the per-host shape defaults shared by ScenarioSpec
// and ClusterSpec: one vCPU per VM, one core per vCPU, one vhost core
// per VM up to four, one queue pair.
func hostDefaults(vms int, vcpus, vmCores, vhostCores, queues *int) {
	if *vcpus <= 0 {
		*vcpus = 1
	}
	if *vmCores <= 0 {
		*vmCores = *vcpus
	}
	if *vhostCores <= 0 {
		*vhostCores = min(vms, 4)
	}
	if *queues <= 0 {
		*queues = 1
	}
}

// observerDefaults fills the observer defaults shared by ScenarioSpec
// and ClusterSpec for the observers that are switched on.
func observerDefaults(telemetry bool, window *time.Duration, critPath bool, exemplars *int) {
	if telemetry && *window <= 0 {
		*window = 10 * time.Millisecond
	}
	if critPath && *exemplars <= 0 {
		*exemplars = 8
	}
}

// testbed is one fully wired simulated host pair: the host under test
// and, across one back-to-back link per VM, its external peers.
type testbed struct {
	*hostBed
	spec ScenarioSpec
	eng  *sim.Engine
	ids  workloads.FlowIDs

	// Timeline state (nil / empty unless spec.Timeline or PathTrace).
	tl         *trace.Timeline
	probes     []*probeVar
	probeTrack trace.TrackID

	// Invariant checker (nil when off).
	chk *faults.Checker

	// Windowed-telemetry state (nil unless spec.Telemetry).
	tel *telemetryState

	// Causal critical-path tracker (nil unless spec.CritPath).
	crit *causal.Tracker

	// Engine wall-clock performance collector (nil unless
	// spec.EngineStats).
	perf *enginestats.Collector

	// Streaming SLO evaluator (nil unless spec.SLO declares
	// objectives).
	sloEval *slo.Evaluator
}

// engineTopK bounds the subsystem table of an EngineReport.
const engineTopK = 12

// probeVar is one periodically sampled state variable.
type probeVar struct {
	series *metrics.Series
	sample func() float64
}

// rxDemux fans wire ingress out to the per-queue vhost devices by flow
// hash, standing in for the NIC's receive-side scaling.
type rxDemux struct{ devs []*vhost.Device }

// Receive implements netsim.Endpoint.
func (d rxDemux) Receive(p *netsim.Packet) { d.device(p.Flow).Receive(p) }

// device returns the vhost device of the queue pair flow hashes to.
func (d rxDemux) device(flow int) *vhost.Device {
	return d.devs[guest.QueueFor(flow, len(d.devs))]
}

// collector gathers workload-specific measurements.
type collector struct {
	onWarmupEnd func()
	fill        func(r *Result, window sim.Time)

	// SLO signal sources (set by request workloads): the latency
	// histogram backing latency objectives and the cumulative
	// completion counter backing goodput objectives.
	sloLat *metrics.LogHistogram
	sloOps func() float64
}

// Run executes one scenario to completion and returns its result.
func Run(spec ScenarioSpec) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tb, err := build(spec)
	if err != nil {
		return nil, err
	}
	if spec.Check || os.Getenv("ES2_CHECK") != "" {
		tb.chk = faults.NewChecker(tb.eng, checkerTick)
		tb.registerInvariants(tb.chk)
		tb.chk.Start()
	}
	col, err := tb.startWorkload()
	if err != nil {
		return nil, err
	}
	if spec.SLO.Enabled() {
		// The evaluator must exist before telemetry registration (the
		// es2_slo_* probes read it) but only starts ticking — and
		// baselines its counters — at warmup end, after the histogram
		// resets below.
		tb.setupSLO(col)
	}

	warmup := sim.DurationOf(spec.Warmup)
	window := sim.DurationOf(spec.Duration)
	// The wall clock opens here, so testbed assembly is excluded and the
	// report measures only the event loop.
	tb.perf.Start()
	tb.eng.Run(warmup)
	tb.startWindow()
	traced := spec.PathTrace || spec.Timeline
	if traced {
		// Measurement window begins: start the timeline recording and
		// the periodic state probes.
		tb.tl.Activate()
		tb.startProbes()
	}
	if tb.tel != nil {
		// The recorder baselines every counter here, so its windowed
		// deltas integrate exactly to the scalars computed below.
		tb.startTelemetry(warmup + window)
	}
	// Drop warm-up chains at the same instant the latency histograms
	// reset; chains still in flight complete into the window, exactly
	// as their latencies do.
	tb.crit.Reset()
	if col.onWarmupEnd != nil {
		col.onWarmupEnd()
	}
	if tb.sloEval != nil {
		// Baselines are snapshotted here, after every warm-up reset, so
		// the first evaluation tick sees only measurement-window deltas.
		tb.sloEval.Start(tb.eng, warmup, warmup+window)
	}
	tb.eng.Run(warmup + window)
	// Close the wall clock before result assembly, which is real work
	// the engine never saw.
	tb.perf.Stop()
	if tb.tel != nil {
		// Close the final (possibly partial) window at the horizon.
		tb.tel.rec.Finalize()
	}

	// Only the tested VM is measured; the others run CPU-burn fillers.
	r := &Result{
		Name:            spec.Name,
		Config:          spec.Config,
		MeasuredSeconds: window.Seconds(),
		ExitRates:       make(map[string]float64),
		TIG:             tb.vms[0].TIG(),
	}
	tb.addVMCounters(r, 0, window)
	tb.fillHost(r, window)
	if traced {
		for _, p := range tb.probes {
			ps := ProbeSeries{Name: p.series.Name}
			for _, pt := range p.series.Points {
				ps.Points = append(ps.Points, ProbePoint{AtSeconds: pt.T.Seconds(), Value: pt.V})
			}
			r.Probes = append(r.Probes, ps)
		}
		r.Timeline = tb.tl
	}
	if tb.inj != nil {
		r.Faults = newFaultReport(tb.inj.Counters, tb.recoveries().minus(tb.rec0))
	}
	if tb.chk != nil {
		r.InvariantChecks = tb.chk.Ticks
	}
	if tb.tel != nil {
		tb.fillTelemetry(r)
	}
	if tb.crit != nil {
		r.CriticalPath = tb.crit.Report()
	}
	if tb.perf != nil {
		r.EngineReport = tb.perf.Report(tb.eng.EventsFired(), tb.eng.HeapStats(),
			(warmup + window).Seconds(), engineTopK)
	}
	if tb.sloEval != nil {
		r.SLO = tb.sloEval.Report()
	}
	col.fill(r, window)
	return r, nil
}

// setupSLO builds the streaming SLO evaluator and binds every
// objective to its signal source: latency objectives read the
// workload's latency histogram, goodput objectives its completion
// counter, and availability objectives the tested VM's
// delivered-vs-lost wire traffic (drops plus TCP retransmits).
// Validation has already rejected objectives the workload cannot
// back.
func (tb *testbed) setupSLO(col collector) {
	ev := slo.New(tb.spec.SLO, slo.Context{BlameStage: tb.crit.TopStage})
	for i, o := range tb.spec.SLO.Objectives {
		switch o.Kind {
		case slo.KindLatency:
			h, thr := col.sloLat, sim.DurationOf(o.Threshold)
			ev.BindCounters(i,
				func() float64 { return float64(h.Count()) },
				func() float64 { return float64(h.CountAbove(thr)) })
		case slo.KindGoodput:
			ev.BindGoodput(i, col.sloOps)
		case slo.KindAvailability:
			bad := func() float64 {
				var n uint64
				for _, d := range tb.devsByVM[0] {
					n += d.BacklogDrops
				}
				n += tb.kerns[0].Dev.LocalDrops
				n += tb.recoveries().retransmits
				return float64(n)
			}
			ev.BindCounters(i, func() float64 {
				var n uint64
				for _, d := range tb.devsByVM[0] {
					n += d.TxPkts + d.RxPkts
				}
				return float64(n) + bad()
			}, bad)
		}
	}
	tb.sloEval = ev
}

// RunMany executes scenarios concurrently (parallelism <= 0 selects
// GOMAXPROCS), preserving order. Each scenario runs on its own engine,
// so results are identical to sequential runs.
func RunMany(specs []ScenarioSpec, parallelism int) ([]*Result, error) {
	return runPool(specs, parallelism, Run)
}

// runPool runs every spec on at most parallelism goroutines (<= 0
// selects GOMAXPROCS) and returns the results in input order, with the
// first error in input order.
func runPool[S, R any](specs []S, parallelism int, run func(S) (R, error)) ([]R, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	results := make([]R, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = run(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// build wires the simulated testbed. The spec has already passed
// validate, so resource bounds and combination rules hold here.
func build(spec ScenarioSpec) (*testbed, error) {
	eng := sim.NewEngine(spec.Seed)
	costs := vmm.DefaultCosts()
	if spec.testCosts != nil {
		costs = *spec.testCosts
	}
	tb := &testbed{spec: spec, eng: eng, probeTrack: trace.NoTrack}
	if spec.Timeline {
		// The timeline must exist before threads, VMs and workers are
		// created so their tracks register in deterministic build order.
		tb.tl = trace.NewTimeline()
	}
	if spec.CritPath {
		tb.crit = causal.NewTracker(spec.CritPathExemplars)
	}
	tb.hostBed = newHostBed(eng, "", hostSpec{
		cfg: spec.Config, costs: costs,
		vcpus: spec.VCPUs, vmCores: spec.VMCores, vhostCores: spec.VhostCores, queues: spec.Queues,
		direct: spec.DirectAssign, coalesceCount: spec.CoalesceCount,
		coalesceTimer: sim.DurationOf(spec.CoalesceTimer), sidecore: spec.Sidecore,
		timeline: tb.tl, cpuProfile: spec.CPUProfile,
		probe: causal.NewProbe(tb.crit, 0, spec.PathTrace || spec.Timeline),
	})
	if spec.EngineStats {
		// Attach before any VM exists so build-time registrations sample
		// like everything else. The wall clock only starts at the first
		// Run.
		tb.perf = enginestats.New(enginestats.DefaultSampleN)
		eng.SetStats(tb.perf)
	}
	var inj *faults.Injector
	if spec.Faults.Enabled() {
		// The injector forks the engine RNG here, after the scheduler,
		// KVM and ES2 forks and before the VMs', so the streams the rest
		// of the simulation draws from are split at the same point on
		// every run of the same spec.
		inj = faults.NewInjector(eng, eng.Rand(), spec.Faults)
	}
	for i := 0; i < spec.VMs; i++ {
		link := netsim.NewLink(eng, 40, 2*sim.Microsecond)
		peer := workloads.NewPeer(eng, link.PortB(), 2*sim.Microsecond)
		devs, err := tb.addVM(i, link.PortA())
		if err != nil {
			return nil, err
		}
		link.Attach(rxDemux{devs: devs}, peer)
		tb.peers = append(tb.peers, peer)
		if inj != nil {
			inj.AttachPort(link.PortA())
			inj.AttachPort(link.PortB())
		}
	}
	if inj != nil {
		tb.attachInjector(inj, spec.Faults.StormCores)
		if !spec.Faults.NoRecovery {
			tb.armRecovery()
		}
	}
	if tb.tl != nil {
		tb.probeTrack = tb.tl.Track("probes", "probes")
	}
	if spec.Telemetry {
		// Latency hooks must be installed before the workload posts its
		// first descriptor (see setupTelemetry).
		tb.setupTelemetry()
	}
	return tb, nil
}

// startProbes begins the 1ms periodic state sampling: virtqueue depth
// and vhost backlog of the tested VM, ES2's online/offline list
// lengths, and per-core runqueue lengths. Called at the start of the
// measurement window.
func (tb *testbed) startProbes() {
	add := func(name string, fn func() float64) {
		tb.probes = append(tb.probes, &probeVar{series: &metrics.Series{Name: name}, sample: fn})
	}
	devs := tb.devsByVM[0]
	add("vm0.txq_avail", func() float64 {
		n := 0
		for _, d := range devs {
			n += d.TXQ.AvailLen()
		}
		return float64(n)
	})
	add("vm0.vhost_backlog", func() float64 {
		n := 0
		for _, d := range devs {
			n += d.Backlog()
		}
		return float64(n)
	})
	if tb.es.Watcher != nil {
		vm := tb.vms[0]
		add("vm0.online", func() float64 {
			on, _ := tb.es.Watcher.ListLens(vm)
			return float64(on)
		})
		add("vm0.offline", func() float64 {
			_, off := tb.es.Watcher.ListLens(vm)
			return float64(off)
		})
	}
	for i := 0; i < tb.sch.NumCores(); i++ {
		add(fmt.Sprintf("core%d.runnable", i), func() float64 {
			return float64(tb.sch.RunnableCount(i))
		})
	}

	const interval = sim.Millisecond
	var tick func()
	tick = func() {
		now := tb.eng.Now()
		for _, p := range tb.probes {
			v := p.sample()
			p.series.Append(now, v)
			tb.tl.Counter(tb.probeTrack, p.series.Name, now, v)
		}
		tb.eng.After(interval, tick)
	}
	tick()
}

// startWorkload attaches the requested workload to the tested VM and
// returns its measurement collector.
func (tb *testbed) startWorkload() (collector, error) {
	spec := tb.spec
	w := spec.Workload
	kern := tb.kerns[0]
	vm := tb.vms[0]
	peer := tb.peers[0]

	switch w.Kind {
	case IdleBurn:
		return collector{fill: func(r *Result, win sim.Time) {}}, nil

	case NetperfTCPSend:
		var sinks []*workloads.TCPSink
		for t := 0; t < w.Threads; t++ {
			v := vm.VCPUs[t%len(vm.VCPUs)]
			_, sink := workloads.NetperfSendTCP(kern, v, peer, tb.ids.Next(), w.MsgBytes, w.Window)
			sinks = append(sinks, sink)
		}
		return streamCollector(func() (bytes, segs uint64) {
			for _, s := range sinks {
				bytes += s.Bytes
				segs += s.Segs
			}
			return
		}), nil

	case NetperfUDPSend:
		var sinks []*workloads.UDPSink
		for t := 0; t < w.Threads; t++ {
			v := vm.VCPUs[t%len(vm.VCPUs)]
			var sink *workloads.UDPSink
			if w.SendRatePPS > 0 {
				_, sink = workloads.NetperfSendUDPPaced(kern, v, peer, tb.ids.Next(), w.MsgBytes, w.SendRatePPS/float64(w.Threads))
			} else {
				_, sink = workloads.NetperfSendUDP(kern, v, peer, tb.ids.Next(), w.MsgBytes)
			}
			sinks = append(sinks, sink)
		}
		return streamCollector(func() (bytes, pkts uint64) {
			for _, s := range sinks {
				bytes += s.Bytes
				pkts += s.Pkts
			}
			return
		}), nil

	case NetperfTCPRecv:
		var recvs []*guest.TCPReceiver
		for t := 0; t < w.Threads; t++ {
			recv, _ := workloads.NetperfRecvTCP(kern, peer, tb.ids.Next(), w.MsgBytes, w.Window)
			recvs = append(recvs, recv)
		}
		return streamCollector(func() (bytes, segs uint64) {
			for _, rv := range recvs {
				bytes += rv.BytesReceived
				segs += rv.Segs
			}
			return
		}), nil

	case NetperfUDPRecv:
		var recvs []*guest.UDPReceiver
		for t := 0; t < w.Threads; t++ {
			recv, _ := workloads.NetperfRecvUDP(kern, peer, tb.ids.Next(), w.MsgBytes, w.UDPRatePPS/float64(w.Threads))
			recvs = append(recvs, recv)
		}
		return streamCollector(func() (bytes, pkts uint64) {
			for _, rv := range recvs {
				bytes += rv.BytesReceived
				pkts += rv.Pkts
			}
			return
		}), nil

	case Ping:
		p := workloads.StartPing(kern, peer, tb.ids.Next(), sim.DurationOf(w.PingInterval))
		// The first probe (fired inside StartPing) predates the probe
		// and goes unchained; it completes during warmup regardless.
		p.Causal = tb.crit.Probe(0)
		seriesStart := 0
		return collector{
			sloLat: p.Hist,
			sloOps: func() float64 { return float64(p.Hist.Count()) },
			onWarmupEnd: func() {
				p.Hist.Reset()
				seriesStart = p.RTTs.Len()
			},
			fill: func(r *Result, win sim.Time) {
				for _, pt := range p.RTTs.Points[seriesStart:] {
					r.RTTSeries = append(r.RTTSeries, RTTPoint{AtSeconds: pt.T.Seconds(), Millis: pt.V})
				}
				fillLatency(r, p.Hist)
			},
		}, nil

	case Memcached:
		workloads.StartServer(kern, sim.DurationOf(w.ServiceCost))
		if spec.Load.Enabled() {
			// Open-loop load replaces the closed-loop memaslap: the peer
			// arms arrivals on the sim clock from a private RNG root, so
			// the offered sequence is a pure function of spec and seed.
			warmup := sim.DurationOf(spec.Warmup)
			rt := loadgen.NewRuntime(spec.Load.Profile, warmup, sim.DurationOf(spec.Duration))
			lat, phaseHists := metrics.NewLogHistogram(), newPhaseHists(rt)
			ol := workloads.NewOpenLoopClient(rt, phaseHists, lat)
			ol.Causal = tb.crit.Probe(0)
			streams := expandLoadStreams(spec.Load, spec.Seed, sim.DurationOf(2*time.Millisecond))
			for _, st := range streams {
				st.cfg.Flows = []int{tb.ids.Next()}
				ol.AddPeerStream(peer, st.cfg)
			}
			return collector{
				sloLat: lat,
				sloOps: func() float64 { return float64(ol.Completed) },
				onWarmupEnd: func() {
					ol.ResetStats()
					lat.Reset()
					for _, h := range phaseHists {
						h.Reset()
					}
				},
				fill: func(r *Result, win sim.Time) {
					r.OpsPerSec = rate(ol.Completed, win)
					fillLatency(r, lat)
					r.Load = buildLoadReport(rt, []*workloads.OpenLoopClient{ol}, phaseHists, len(streams), win, warmup+win)
				},
			}, nil
		}
		m := workloads.StartMemaslap(peer, &tb.ids, w.Conns, w.Concurrency)
		// The initial burst (issued inside StartMemaslap) goes
		// unchained; the closed loop picks chains up on reissue, well
		// before warmup ends.
		m.Causal = tb.crit.Probe(0)
		var done0 uint64
		return collector{
			sloLat:      m.Lat,
			sloOps:      func() float64 { return float64(m.Completed) },
			onWarmupEnd: func() { done0 = m.Completed; m.Lat.Reset() },
			fill: func(r *Result, win sim.Time) {
				r.OpsPerSec = rate(m.Completed-done0, win)
				fillLatency(r, m.Lat)
			},
		}, nil

	case Apache:
		workloads.StartServer(kern, sim.DurationOf(w.ServiceCost))
		ab := workloads.StartApacheBench(peer, &tb.ids, w.Concurrency, w.PageBytes)
		var done0, bytes0 uint64
		return collector{
			sloLat:      ab.ConnTime,
			sloOps:      func() float64 { return float64(ab.Completed) },
			onWarmupEnd: func() { done0, bytes0 = ab.Completed, ab.BytesReceived; ab.ConnTime.Reset() },
			fill: func(r *Result, win sim.Time) {
				r.OpsPerSec = rate(ab.Completed-done0, win)
				r.ThroughputMbps = mbps(ab.BytesReceived-bytes0, win)
				fillLatency(r, ab.ConnTime)
			},
		}, nil

	case Httperf:
		workloads.StartServer(kern, sim.DurationOf(w.ServiceCost))
		h := workloads.StartHttperf(peer, &tb.ids, w.ConnRate, w.PageBytes)
		var est0 uint64
		return collector{
			sloLat:      h.ConnTime,
			sloOps:      func() float64 { return float64(h.Established) },
			onWarmupEnd: func() { est0 = h.Established; h.ConnTime.Reset() },
			fill: func(r *Result, win sim.Time) {
				r.OpsPerSec = rate(h.Established-est0, win)
				fillLatency(r, h.ConnTime)
			},
		}, nil
	}
	return collector{}, fmt.Errorf("es2: unknown workload kind %d", w.Kind)
}

// streamCollector measures a netperf stream's goodput and packet rate
// over the window from its cumulative byte and packet totals.
func streamCollector(totals func() (bytes, pkts uint64)) collector {
	var bytes0, pkts0 uint64
	return collector{
		onWarmupEnd: func() { bytes0, pkts0 = totals() },
		fill: func(r *Result, win sim.Time) {
			bytes, pkts := totals()
			r.ThroughputMbps = mbps(bytes-bytes0, win)
			r.PktRate = rate(pkts-pkts0, win)
		},
	}
}

func mbps(bytes uint64, win sim.Time) float64 {
	if win <= 0 {
		return 0
	}
	return float64(bytes) * 8 / 1e6 / win.Seconds()
}

func rate(n uint64, win sim.Time) float64 {
	if win <= 0 {
		return 0
	}
	return float64(n) / win.Seconds()
}

func fillLatency(r *Result, h interface {
	Mean() sim.Time
	Quantile(float64) sim.Time
	Max() sim.Time
}) {
	r.MeanLatency = time.Duration(h.Mean())
	r.P50Latency = time.Duration(h.Quantile(0.5))
	r.P90Latency = time.Duration(h.Quantile(0.9))
	r.P99Latency = time.Duration(h.Quantile(0.99))
	r.P999Latency = time.Duration(h.Quantile(0.999))
	r.MaxLatency = time.Duration(h.Max())
}
