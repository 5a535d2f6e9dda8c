package es2

import (
	"fmt"
	"os"
	"time"

	"es2/internal/causal"
	"es2/internal/enginestats"
	"es2/internal/fabric"
	"es2/internal/faults"
	"es2/internal/guest"
	"es2/internal/loadgen"
	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/slo"
	"es2/internal/telemetry"
	"es2/internal/vhost"
	"es2/internal/vmm"
	"es2/internal/workloads"
)

// clusterHost is one machine of the rack, attached to the fabric
// through one NIC port.
type clusterHost struct {
	*hostBed
	index int

	port  *fabric.Port
	demux *hostDemux

	// Client hosts run one RPC client (closed loop) or one open-loop
	// client (Workload.Load runs) per VM and aggregate their latency
	// into lat; server hosts run one Server per VM.
	clients []*workloads.RPCClient
	loads   []*workloads.OpenLoopClient
	lat     *metrics.LogHistogram
}

// vmRef names VM vi of host h.
type vmRef struct {
	h  *clusterHost
	vi int
}

// hostDemux is a host NIC's receive side: ingress frames are fanned to
// the owning VM's per-queue vhost device by the rack's route table
// (receive-side steering with an exact-match table).
type hostDemux struct {
	cb   *clusterBed
	port *fabric.Port // the host's own port
	// moved holds the device of each flow that failed over away from
	// this host, so frames already on their way here still land.
	moved map[int]*vhost.Device

	// Drops counts frames for unknown flows (none in a correctly wired
	// cluster).
	Drops uint64
}

// Receive implements netsim.Endpoint.
func (d *hostDemux) Receive(p *netsim.Packet) {
	if dev := d.device(p.Flow); dev != nil {
		dev.Receive(p)
		return
	}
	d.Drops++
}

// device returns the vhost device this host steers flow id's frames
// to: the route's side whose port is the host's own, else a device the
// flow left here on failover, else nil.
func (d *hostDemux) device(id int) *vhost.Device {
	if r := d.cb.route(id); r != nil {
		switch d.port {
		case r.server:
			return r.serverDev
		case r.client:
			return r.clientDev
		}
	}
	return d.moved[id]
}

// flowRoute is one flow's path through the rack: the ports of its
// client's and its server's hosts, the vhost device each of those
// hosts steers the flow's frames to, and the server's index in
// clusterBed.servers, which chaos failover rebinds.
type flowRoute struct {
	client, server       *fabric.Port
	clientDev, serverDev *vhost.Device
	srv                  int
}

// clusterBed is one fully wired rack.
type clusterBed struct {
	spec    ClusterSpec
	eng     *sim.Engine
	sw      *fabric.Switch
	hosts   []*clusterHost
	servers []vmRef // every server VM, in host order

	// routes is the rack's route table, indexed by flow id
	// (workloads.FlowIDs hands ids out densely). The switch routes by
	// it and every host's demux steers by it; a nil client port marks
	// an unknown flow.
	routes []flowRoute

	clusterLat *metrics.LogHistogram
	crit       *causal.Tracker

	// Open-loop load state (nil/zero unless Workload.Load is set): the
	// resolved profile runtime, every host's clients in host order, the
	// per-phase latency spectra they share, and the built stream/flow
	// counts.
	loadRT         *loadgen.Runtime
	loads          []*workloads.OpenLoopClient
	loadPhaseHists []*metrics.LogHistogram
	loadStreams    int
	loadFlows      int

	chaos   *chaosController
	chk     *faults.Checker
	tel     *telemetry.Recorder // nil unless spec.Telemetry
	perf    *enginestats.Collector
	sloEval *slo.Evaluator
}

// route returns flow id's route, or nil for an unknown flow.
func (cb *clusterBed) route(id int) *flowRoute {
	if uint(id) < uint(len(cb.routes)) {
		if r := &cb.routes[id]; r.client != nil {
			return r
		}
	}
	return nil
}

// bindFlow carries flow id between client VM c and server VM
// cb.servers[si]: each host steers the flow to its VM's vhost device
// for the flow's queue, and the switch routes it between the two
// hosts' ports. The route table must already hold flow id.
func (cb *clusterBed) bindFlow(id int, c vmRef, si int) {
	r := &cb.routes[id]
	r.client, r.clientDev = c.h.port, c.h.devsByVM[c.vi][guest.QueueFor(id, cb.spec.Queues)]
	cb.serveFlow(id, si)
}

// serveFlow points flow id's route at server VM cb.servers[si].
func (cb *clusterBed) serveFlow(id, si int) {
	s := cb.servers[si]
	r := &cb.routes[id]
	r.server, r.serverDev, r.srv = s.h.port, s.h.devsByVM[s.vi][guest.QueueFor(id, cb.spec.Queues)], si
}

// faultCounters sums the per-host injector tallies.
func (cb *clusterBed) faultCounters() faults.Counters {
	var c faults.Counters
	for _, h := range cb.hosts {
		if h.inj != nil {
			c.Add(h.inj.Counters)
		}
	}
	return c
}

// hostSpec returns host i's build spec: the shared shape and
// observers with the host's own Config and direct-assignment setting.
func (s ClusterSpec) hostSpec(i int, probe *causal.Probe) hostSpec {
	hs := hostSpec{
		cfg: s.Config, costs: vmm.DefaultCosts(),
		vcpus: s.VCPUs, vmCores: s.VMCores, vhostCores: s.VhostCores, queues: s.Queues,
		direct: s.DirectAssign, cpuProfile: s.CPUProfile, probe: probe,
	}
	if len(s.HostConfigs) > 0 {
		hs.cfg = s.HostConfigs[i]
	}
	if len(s.DirectHosts) > 0 {
		hs.direct = s.DirectHosts[i]
	}
	return hs
}

// RunCluster executes one cluster scenario to completion. All hosts
// share a single event engine, so cross-host timing (fabric
// contention, skewed schedulers) is exact; the same spec and seed
// yield byte-identical results.
func RunCluster(spec ClusterSpec) (*ClusterResult, error) {
	spec = spec.withClusterDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cb, err := buildCluster(spec)
	if err != nil {
		return nil, err
	}
	if spec.Check || os.Getenv("ES2_CHECK") != "" {
		cb.chk = faults.NewChecker(cb.eng, checkerTick)
		for _, h := range cb.hosts {
			h.registerInvariants(cb.chk)
		}
		cb.chk.Start()
	}

	warmup := sim.DurationOf(spec.Warmup)
	window := sim.DurationOf(spec.Duration)
	cb.perf.Start()
	cb.eng.Run(warmup)
	cb.resetAtWarmupEnd()
	if spec.SLO.Enabled() {
		// Bind at warmup end so baselines post-date the stat resets;
		// registered before telemetry so es2_slo_* series can probe it.
		cb.setupClusterSLO()
		cb.sloEval.Start(cb.eng, warmup, warmup+window)
	}
	if spec.Telemetry {
		cb.startTelemetry(warmup + window)
	}
	cb.eng.Run(warmup + window)
	cb.perf.Stop()
	if cb.tel != nil {
		cb.tel.Finalize()
	}
	return cb.collect(window), nil
}

// RunManyCluster executes cluster scenarios concurrently (parallelism
// <= 0 selects GOMAXPROCS), preserving input order. Each scenario runs
// on its own engine, so results are identical to sequential runs.
func RunManyCluster(specs []ClusterSpec, parallelism int) ([]*ClusterResult, error) {
	return runPool(specs, parallelism, RunCluster)
}

// buildCluster wires the rack in deterministic order: the switch, then
// each host (scheduler, KVM, ES2, VMs, kernels, vhost devices, NIC
// port), then the route table and workloads, then fault injection.
func buildCluster(spec ClusterSpec) (*clusterBed, error) {
	eng := sim.NewEngine(spec.Seed)
	cb := &clusterBed{
		spec:       spec,
		eng:        eng,
		clusterLat: metrics.NewLogHistogram(),
	}
	cb.sw = fabric.New(eng, fabric.Params{
		PortGbps:   spec.Fabric.PortGbps,
		UplinkGbps: spec.Fabric.UplinkGbps,
		Delay:      sim.DurationOf(spec.Fabric.Delay),
		QueueCap:   spec.Fabric.QueueCap,
	})
	cb.sw.SetRouter(func(src *fabric.Port, p *netsim.Packet) (int, bool) {
		r := cb.route(p.Flow)
		if r == nil {
			return 0, false
		}
		if src == r.client {
			return r.server.Index(), true
		}
		return r.client.Index(), true
	})

	if spec.CritPath {
		cb.crit = causal.NewTracker(spec.CritPathExemplars)
		cb.crit.LabelHosts = true
	}
	if spec.EngineStats {
		// Attach before any host is wired so build-time registrations
		// sample like everything else; the wall clock starts at Run.
		cb.perf = enginestats.New(enginestats.DefaultSampleN)
		eng.SetStats(cb.perf)
	}

	for hi := 0; hi < spec.Hosts; hi++ {
		name := fmt.Sprintf("h%d", hi)
		h := &clusterHost{index: hi, hostBed: newHostBed(eng, name, spec.hostSpec(hi, causal.NewProbe(cb.crit, uint8(hi), spec.PathTrace)))}
		h.demux = &hostDemux{cb: cb}
		h.port = cb.sw.AddPort(name, h.demux)
		h.demux.port = h.port
		h.lat = metrics.NewLogHistogram()
		for vi := 0; vi < spec.VMsPerHost; vi++ {
			if _, err := h.addVM(vi, h.port); err != nil {
				return nil, err
			}
		}
		cb.hosts = append(cb.hosts, h)
	}

	// Workloads: the first ClientHosts hosts run RPC clients, the rest
	// run servers. Flow f is issued by client VM f%nc and served by
	// server VM (f/nc)%ns, so each client fans out over all servers —
	// round-robin load balancing across hosts.
	serviceCost := sim.DurationOf(spec.Workload.ServiceCost)
	var clientVMs []vmRef
	for _, h := range cb.hosts {
		for vi := range h.vms {
			if h.index < spec.ClientHosts {
				clientVMs = append(clientVMs, vmRef{h, vi})
			} else {
				cb.servers = append(cb.servers, vmRef{h, vi})
			}
		}
	}
	nc, ns := len(clientVMs), len(cb.servers)
	if !spec.Workload.Load.Enabled() {
		for i, r := range clientVMs {
			// Client VM i issues flows i, i+nc, i+2nc, ...
			flows := (spec.Workload.Flows + nc - 1 - i) / nc
			c := workloads.NewRPCClient(r.h.kerns[r.vi], flows,
				spec.Workload.ReqBytes, spec.Workload.RespBytes, r.h.lat, cb.clusterLat)
			c.Causal = cb.crit.Probe(uint8(r.h.index))
			if w := spec.Workload; w.RequestTimeout > 0 {
				c.Timeout = sim.DurationOf(w.RequestTimeout)
				c.Backoff = sim.DurationOf(w.RetryBackoff)
				c.BackoffMax = sim.DurationOf(w.RetryBackoffMax)
				c.FailoverAfter = w.FailoverAfter
			}
			r.h.clients = append(r.h.clients, c)
		}
	}
	for _, r := range cb.servers {
		workloads.StartServer(r.h.kerns[r.vi], serviceCost)
	}

	var ids workloads.FlowIDs
	spread := sim.DurationOf(spec.Workload.StartSpread)
	if lspec := spec.Workload.Load; lspec.Enabled() {
		// Open-loop load: one open-loop client per client VM, streams
		// dealt round-robin over client VMs in deterministic order.
		// Arrival RNGs fork off a private root keyed by the seed — not
		// the engine stream — so the offered sequence is identical
		// across host configurations of the same spec.
		cb.loadRT = loadgen.NewRuntime(lspec.Profile,
			sim.DurationOf(spec.Warmup), sim.DurationOf(spec.Duration))
		cb.loadPhaseHists = newPhaseHists(cb.loadRT)
		for _, r := range clientVMs {
			c := workloads.NewOpenLoopClient(cb.loadRT, cb.loadPhaseHists, r.h.lat, cb.clusterLat)
			c.Causal = cb.crit.Probe(uint8(r.h.index))
			r.h.loads = append(r.h.loads, c)
			cb.loads = append(cb.loads, c)
		}
		streams := expandLoadStreams(lspec, spec.Seed, spread)
		cb.loadStreams = len(streams)
		flows := 0
		for _, st := range streams {
			flows += st.fanOut()
		}
		cb.routes = make([]flowRoute, flows+1)
		for gs, st := range streams {
			cr := clientVMs[gs%nc]
			// Fan-out targets: single streams spread over all servers,
			// scatter streams hit FanWidth consecutive servers per
			// request, incast streams of one class converge on one hot
			// server VM.
			var targets []int
			switch st.cls.FanOut {
			case "scatter":
				for j := 0; j < st.fanOut(); j++ {
					targets = append(targets, (gs+j)%ns)
				}
			case "incast":
				targets = append(targets, st.class%ns)
			default:
				targets = append(targets, gs%ns)
			}
			for _, si := range targets {
				flowID := ids.Next()
				cb.bindFlow(flowID, cr, si)
				st.cfg.Flows = append(st.cfg.Flows, flowID)
				cb.loadFlows++
			}
			cr.h.loads[cr.vi].AddStream(cr.h.kerns[cr.vi], st.cfg)
		}
	} else {
		cb.routes = make([]flowRoute, spec.Workload.Flows+1)
		for f := 0; f < spec.Workload.Flows; f++ {
			flowID := ids.Next()
			cr := clientVMs[f%nc]
			cb.bindFlow(flowID, cr, (f/nc)%ns)
			start := spread * sim.Time(f) / sim.Time(spec.Workload.Flows)
			// The client for this VM was appended in clientVMs order; each
			// client VM has exactly one RPCClient.
			cr.h.clients[cr.vi].AddFlow(flowID, start)
		}
	}

	if spec.Faults.Enabled() {
		// One injector — one private RNG fork — per host, forked in
		// deterministic host order: each host's fault stream is
		// independent and warmup reset clears every host's tallies.
		for _, h := range cb.hosts {
			inj := faults.NewInjector(eng, eng.Rand(), spec.Faults)
			inj.AttachWire(func(fault func() netsim.FaultAction) { h.port.SendFault = fault })
			h.attachInjector(inj, spec.Faults.StormCores)
		}
	}
	if (spec.Faults.Enabled() && !spec.Faults.NoRecovery) || spec.Chaos.Enabled() {
		for _, h := range cb.hosts {
			h.armRecovery()
		}
	}
	if spec.Chaos.Enabled() {
		// The chaos controller forks its RNG after every injector, at a
		// fixed point in build order.
		cc := &chaosController{cb: cb, hostDown: make([]bool, spec.Hosts)}
		cb.chaos = cc
		cc.install(eng.Rand().Fork(), sim.DurationOf(spec.Warmup), sim.DurationOf(spec.Duration))
		for _, h := range cb.hosts {
			for _, c := range h.clients {
				c.Failover = cc.failover
				c.NotifyComplete = cc.noteCompletion
			}
		}
		if cb.crit != nil {
			cb.crit.Degraded = func() bool { return cc.active > 0 }
		}
	}
	return cb, nil
}

// resetAtWarmupEnd zeroes every windowed statistic at the start of the
// measurement window.
func (cb *clusterBed) resetAtWarmupEnd() {
	for _, h := range cb.hosts {
		// Every host's injector is cleared, so warmup-era faults never
		// leak into the measured window's counters.
		h.startWindow()
		for _, c := range h.clients {
			c.ResetStats()
		}
		for _, c := range h.loads {
			c.ResetStats()
		}
		h.lat.Reset()
	}
	cb.sw.ResetStats()
	cb.clusterLat.Reset()
	for _, h := range cb.loadPhaseHists {
		h.Reset()
	}
	cb.crit.Reset()
	if cb.chaos != nil {
		cb.chaos.reset()
	}
}

// hostResult assembles host h's per-host Result over the window.
func (cb *clusterBed) hostResult(h *clusterHost, window sim.Time) *Result {
	spec := cb.spec
	r := &Result{
		Name:            fmt.Sprintf("%s/h%d", spec.Name, h.index),
		Config:          h.hs.cfg,
		MeasuredSeconds: window.Seconds(),
		ExitRates:       make(map[string]float64),
	}
	// Every VM counts; TIG is 0, not 1, on a host whose vCPUs never ran.
	for vi := range h.vms {
		h.addVMCounters(r, vi, window)
	}
	if guestT, totalT := vcpuTime(h.vms); totalT > 0 {
		r.TIG = float64(guestT) / float64(totalT)
	}
	h.fillHost(r, window)
	var done, bytes uint64
	for _, c := range h.clients {
		done += c.Completed
		bytes += c.BytesReceived
	}
	for _, c := range h.loads {
		done += c.Completed
		bytes += c.BytesReceived
	}
	if len(h.clients)+len(h.loads) > 0 {
		r.OpsPerSec = rate(done, window)
		r.ThroughputMbps = mbps(bytes, window)
		fillLatency(r, h.lat)
	}
	r.Drops += h.demux.Drops
	return r
}

// collect assembles the ClusterResult at the horizon.
func (cb *clusterBed) collect(window sim.Time) *ClusterResult {
	spec := cb.spec
	res := &ClusterResult{
		Name:            spec.Name,
		Config:          spec.Config,
		MeasuredSeconds: window.Seconds(),
		Hosts:           spec.Hosts,
		VMs:             spec.Hosts * spec.VMsPerHost,
		Flows:           spec.Workload.Flows,
	}
	if cb.loadRT != nil {
		res.Flows = cb.loadFlows
	}
	agg := &Result{
		Name:            spec.Name,
		Config:          spec.Config,
		MeasuredSeconds: window.Seconds(),
		ExitRates:       make(map[string]float64),
	}
	var guestT, totalT, busy sim.Time
	var redir redirectCounts
	for _, h := range cb.hosts {
		hr := cb.hostResult(h, window)
		res.PerHost = append(res.PerHost, hr)
		for k, v := range hr.ExitRates {
			agg.ExitRates[k] += v
		}
		agg.TotalExitRate += hr.TotalExitRate
		agg.IOExitRate += hr.IOExitRate
		agg.DevIRQRate += hr.DevIRQRate
		agg.OpsPerSec += hr.OpsPerSec
		agg.ThroughputMbps += hr.ThroughputMbps
		agg.TxPkts += hr.TxPkts
		agg.RxPkts += hr.RxPkts
		agg.Drops += hr.Drops
		g, t := vcpuTime(h.vms)
		guestT, totalT = guestT+g, totalT+t
		busy += h.vhostBusy() - h.vhostBusy0
		redir = redir.plus(h.redirects().minus(h.redir0))
	}
	if totalT > 0 {
		agg.TIG = float64(guestT) / float64(totalT)
	}
	agg.VhostCPU = vhostCPU(busy, window, spec.VhostCores*spec.Hosts)
	redir.fill(agg)
	fillLatency(agg, cb.clusterLat)
	res.Aggregate = agg

	// Per-flow fairness over every client flow that completed work.
	ff := &FlowFairness{}
	var sumMeans sim.Time
	for _, h := range cb.hosts {
		for _, c := range h.clients {
			flows := c.Flows()
			for i := range flows {
				f := &flows[i]
				if f.Completed == 0 {
					continue
				}
				mean := f.LatSum / sim.Time(f.Completed)
				if ff.Flows == 0 || time.Duration(mean) < ff.MinMean {
					ff.MinMean = time.Duration(mean)
				}
				ff.MaxMean = max(ff.MaxMean, time.Duration(mean))
				ff.MaxMax = max(ff.MaxMax, time.Duration(f.LatMax))
				sumMeans += mean
				ff.Flows++
			}
		}
	}
	if ff.Flows > 0 {
		ff.MeanOfMeans = time.Duration(sumMeans / sim.Time(ff.Flows))
		res.FlowFairness = ff
	}

	fr := &FabricReport{
		Ports:       cb.sw.NumPorts(),
		Forwarded:   cb.sw.Forwarded,
		RouteDrops:  cb.sw.RouteDrops,
		UplinkBytes: cb.sw.UplinkBytes,
	}
	if window > 0 && cb.spec.Fabric.UplinkGbps > 0 {
		fr.UplinkUtilization = float64(cb.sw.UplinkBusy) / float64(window)
	}
	for i := 0; i < cb.sw.NumPorts(); i++ {
		p := cb.sw.Port(i)
		fr.EgressDrops += p.EgressDrops
		fr.PerPort = append(fr.PerPort, FabricPortReport{
			Port: i, Name: p.Name(),
			TxPkts: p.TxPkts, TxBytes: p.TxBytes,
			RxPkts: p.RxPkts, RxBytes: p.RxBytes,
			EgressDrops: p.EgressDrops,
		})
	}
	res.Fabric = fr

	if cb.crit != nil {
		res.CriticalPath = cb.crit.Report()
	}

	if spec.Faults.Enabled() || cb.chaos != nil {
		var rec recoveryCounts
		for _, h := range cb.hosts {
			rec = rec.plus(h.recoveries().minus(h.rec0))
		}
		res.Faults = newFaultReport(cb.faultCounters(), rec)
	}
	if cb.chaos != nil {
		res.Recovery = cb.chaos.report(window)
	}
	if cb.sloEval != nil {
		res.SLO = cb.sloEval.Report()
	}
	if cb.loadRT != nil {
		horizon := sim.DurationOf(spec.Warmup) + window
		res.Load = buildLoadReport(cb.loadRT, cb.loads, cb.loadPhaseHists, cb.loadStreams, window, horizon)
	}
	if cb.chk != nil {
		res.InvariantChecks = cb.chk.Ticks
	}
	if cb.tel != nil {
		cb.fillClusterTelemetry(res)
	}
	if cb.perf != nil {
		res.EngineReport = cb.perf.Report(cb.eng.EventsFired(), cb.eng.HeapStats(),
			cb.eng.Now().Seconds(), engineTopK)
	}
	return res
}
