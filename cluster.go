package es2

import (
	"math"
	"time"

	"es2/internal/telemetry"
)

// FabricSpec configures the rack fabric (see internal/fabric). Zero
// fields take the defaults noted per field.
type FabricSpec struct {
	// PortGbps is the per-host NIC/switch-port line rate (default 40).
	PortGbps float64
	// UplinkGbps is the switch's shared backplane rate; every
	// host-to-host frame crosses it once. Zero (the default) models a
	// non-blocking switch; a finite value models oversubscription.
	UplinkGbps float64
	// Delay is the port-to-port forwarding latency (default 4µs).
	Delay time.Duration
	// QueueCap bounds each egress port queue in frames (tail drop
	// beyond it; default 4096).
	QueueCap int
}

// ClusterWorkloadSpec parameterizes the cluster's scale workload:
// closed-loop RPC flows issued from client VMs and load-balanced
// round-robin across the server VMs on the remaining hosts, every
// request and response crossing the fabric.
type ClusterWorkloadSpec struct {
	// Flows is the total number of client flows (default 64 per client
	// VM). Each keeps one request outstanding.
	Flows int
	// ReqBytes and RespBytes size the messages (defaults 128 and
	// 1024).
	ReqBytes  int
	RespBytes int
	// ServiceCost is the server's per-request application CPU
	// (default 6µs).
	ServiceCost time.Duration
	// StartSpread staggers first requests uniformly over this span so
	// the warmup ramp is not a synchronized burst (default 2ms).
	StartSpread time.Duration

	// RequestTimeout arms a per-request deadline on every flow: an
	// expired request is retried with exponential backoff and
	// deterministic jitter. Zero disables deadlines — the legacy
	// closed loop — unless chaos is enabled, in which case it defaults
	// to 5ms (a chaotic cluster without client deadlines would wedge
	// every flow bound to a crashed host). Minimum 10µs when set.
	RequestTimeout time.Duration
	// RetryBackoff is the first retry delay (default RequestTimeout/4)
	// and doubles per consecutive timeout up to RetryBackoffMax
	// (default 8x RetryBackoff). Both require RequestTimeout.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// FailoverAfter is the consecutive-timeout threshold at which a
	// flow is re-balanced from its (presumed dead) server host to a
	// surviving server VM (default 3 under chaos; requires
	// RequestTimeout and only acts when chaos is enabled, since only
	// the chaos controller knows which hosts are impaired).
	FailoverAfter int

	// Load, when non-zero, replaces the closed-loop RPC flows with the
	// open-loop generator: client VMs arm arrivals on the sim clock per
	// Load's classes and day profile, regardless of completions, so
	// offered load can exceed capacity and the rack can exhibit
	// queueing collapse. Flows, ReqBytes, RespBytes, StartSpread and
	// the retry knobs are ignored under load (sizes and stream counts
	// come from the load classes; open-loop requests are never
	// retried); ServiceCost still applies to the servers.
	// ClusterResult.Load reports offered-vs-completed, shed, backlog,
	// per-phase spectra and the collapse knee.
	Load LoadSpec
}

// ClusterSpec describes one simulated rack: Hosts independent machines
// — each with its own cores, CFS scheduler, KVM, vhost back-end and
// VMs — connected by one switch, with VM-to-VM RPC traffic between
// them. The same spec and seed reproduce bit-identical results.
type ClusterSpec struct {
	// Name labels the run in results.
	Name string
	// Seed drives all randomness.
	Seed uint64

	// Config is the event-path configuration installed on every host.
	Config Config
	// HostConfigs, when non-empty, overrides Config per host (length
	// must equal Hosts) — for mixed-fleet studies.
	HostConfigs []Config

	// DirectAssign models SR-IOV direct device assignment on every
	// host, exactly as ScenarioSpec.DirectAssign does for the single
	// host: guest doorbell writes reach the assigned VF without VM
	// exits, and the hybrid kick-polling machinery is ignored (there
	// are no kick exits to eliminate). Interrupt delivery still follows
	// each host's Config.
	DirectAssign bool
	// DirectHosts, when non-empty, selects direct assignment per host
	// (length must equal Hosts), overriding DirectAssign — for mixed
	// fleets where only some racks have VFs to hand out.
	DirectHosts []bool

	// Hosts is the number of machines (default 2). The first
	// ClientHosts run client VMs; the rest run server VMs.
	Hosts int
	// ClientHosts is the number of client machines (default Hosts/2,
	// at least 1; must leave at least one server host).
	ClientHosts int

	// VMsPerHost, VCPUs, VMCores, VhostCores and Queues mirror the
	// single-host ScenarioSpec fields, applied to every host
	// (defaults: 2 VMs, 1 vCPU, VMCores=VCPUs, VhostCores=min(VMs,4),
	// 1 queue).
	VMsPerHost int
	VCPUs      int
	VMCores    int
	VhostCores int
	Queues     int

	// Fabric configures the switch.
	Fabric FabricSpec
	// Workload configures the RPC scale workload.
	Workload ClusterWorkloadSpec

	// Telemetry enables the windowed recorder across the cluster: the
	// headline per-host series carry a host="hN" label, fabric-level
	// series cover the switch, and per-host RPC latency spectra are
	// reported in the aggregate Result's LatencyProfiles. Exports are
	// byte-identical under a fixed seed.
	Telemetry bool
	// TelemetryWindow is the sampling window (default 10ms).
	TelemetryWindow time.Duration
	// CPUProfile enables one simulated-CPU profiler per host
	// (PerHost[i].CPUProfile / CPUReport).
	CPUProfile bool
	// PathTrace enables per-host event-path spectra
	// (PerHost[i].PathBreakdown; see ScenarioSpec.PathTrace).
	PathTrace bool
	// CritPath enables the causal critical-path analyzer across the
	// rack: every completed RPC threads one chain through both hosts
	// and the fabric, and ClusterResult.CriticalPath reports the
	// aggregate blame profile plus per-(stage, host) rows labeled
	// "hN", tail exemplars and what-if estimates. Purely
	// observational; results replay byte-identically.
	CritPath bool
	// CritPathExemplars is the number of slowest RPCs retained with
	// full cross-host timelines (default 8, max 1024).
	CritPathExemplars int
	// EngineStats enables wall-clock performance telemetry of the
	// simulator itself (event-loop throughput, heap behaviour, sampled
	// per-subsystem wall/allocation attribution, sampled 1 in
	// DefaultEngineStatsSampleN callbacks) on the shared cluster
	// engine. It measures real time, not simulated time, so the
	// resulting ClusterResult.EngineReport is machine-dependent and
	// excluded from the deterministic JSON surface; simulated results
	// are byte-identical with it on or off.
	EngineStats bool

	// Faults configures deterministic micro-fault injection (wire
	// loss, lost kicks, stalls, …), applied per host from one forked
	// injector stream each.
	Faults FaultSpec
	// SLO declares service-level objectives over the rack's RPC
	// workload (latency vs. threshold, availability =
	// completions-vs-timeouts, goodput vs. floor), evaluated
	// streamingly with multi-window multi-burn-rate alert rules.
	// ClusterResult.SLO carries the compliance report and the
	// deterministic fire/clear alert timeline, with active chaos
	// faults and the top critical-path blame stage attached to each
	// alert as correlated context. Zero value: no SLOs.
	SLO SLOSpec
	// Chaos configures rack-scale macro-fault timelines: whole-host
	// crash/freeze windows, fabric link flaps and rate degradation,
	// and switch egress blackholing, drawn deterministically from the
	// seed and injected inside the measurement window. Chaos runs
	// report ClusterResult.Recovery.
	Chaos ChaosSpec
	// Check enables the runtime invariant checker on every host's
	// structures (also via ES2_CHECK).
	Check bool

	// Warmup precedes measurement (default 100ms of simulated time);
	// Duration is the measurement window (default 300ms).
	Warmup   time.Duration
	Duration time.Duration
}

// withClusterDefaults fills zero fields.
func (s ClusterSpec) withClusterDefaults() ClusterSpec {
	if s.Hosts <= 0 {
		s.Hosts = 2
	}
	if s.ClientHosts <= 0 {
		s.ClientHosts = s.Hosts / 2
		if s.ClientHosts < 1 {
			s.ClientHosts = 1
		}
	}
	if s.VMsPerHost <= 0 {
		s.VMsPerHost = 2
	}
	hostDefaults(s.VMsPerHost, &s.VCPUs, &s.VMCores, &s.VhostCores, &s.Queues)
	if s.Fabric.PortGbps <= 0 {
		s.Fabric.PortGbps = 40
	}
	if s.Fabric.Delay <= 0 {
		s.Fabric.Delay = 4 * time.Microsecond
	}
	if s.Fabric.QueueCap <= 0 {
		s.Fabric.QueueCap = 4096
	}
	w := &s.Workload
	if w.Load.Enabled() {
		w.Load = w.Load.WithDefaults()
		// Open-loop load replaces the closed-loop flows entirely; Flows
		// stays zero and the result reports the stream count instead.
		w.Flows = 0
	} else if w.Flows <= 0 {
		w.Flows = 64 * s.ClientHosts * s.VMsPerHost
	}
	if w.ReqBytes <= 0 {
		w.ReqBytes = 128
	}
	if w.RespBytes <= 0 {
		w.RespBytes = 1024
	}
	if w.ServiceCost <= 0 {
		w.ServiceCost = 6 * time.Microsecond
	}
	if w.StartSpread <= 0 {
		w.StartSpread = 2 * time.Millisecond
	}
	if s.Chaos.Enabled() {
		if w.RequestTimeout == 0 {
			w.RequestTimeout = 5 * time.Millisecond
		}
		if s.Chaos.MinGap == 0 && s.Chaos.MaxGap == 0 {
			s.Chaos.MinGap = 2 * time.Millisecond
			s.Chaos.MaxGap = 8 * time.Millisecond
		}
	}
	if w.RequestTimeout > 0 {
		if w.RetryBackoff == 0 {
			w.RetryBackoff = w.RequestTimeout / 4
		}
		if w.RetryBackoffMax == 0 {
			w.RetryBackoffMax = 8 * w.RetryBackoff
		}
		if w.FailoverAfter == 0 && s.Chaos.Enabled() {
			w.FailoverAfter = 3
		}
	}
	observerDefaults(s.Telemetry, &s.TelemetryWindow, s.CritPath, &s.CritPathExemplars)
	if s.Config.Hybrid && s.Config.Quota <= 0 {
		s.Config.Quota = 4
	}
	for i := range s.HostConfigs {
		if s.HostConfigs[i].Hybrid && s.HostConfigs[i].Quota <= 0 {
			s.HostConfigs[i].Quota = 4
		}
	}
	s.SLO = s.SLO.WithDefaults()
	if s.Warmup <= 0 {
		s.Warmup = 100 * time.Millisecond
	}
	if s.Duration <= 0 {
		s.Duration = 300 * time.Millisecond
	}
	return s
}

// Cluster-scale resource caps, on top of the per-host caps shared with
// ScenarioSpec.
const (
	maxHosts      = 64
	maxClusterVMs = 256
)

// validate checks a defaulted cluster spec.
func (s ClusterSpec) validate() error {
	if s.Hosts > maxHosts {
		return specErr("Hosts", "%d exceeds the supported maximum %d", s.Hosts, maxHosts)
	}
	if s.Hosts < 2 {
		return specErr("Hosts", "a cluster needs at least 2 hosts, got %d", s.Hosts)
	}
	if s.ClientHosts >= s.Hosts {
		return specErr("ClientHosts", "%d leaves no server host (Hosts=%d)", s.ClientHosts, s.Hosts)
	}
	if len(s.HostConfigs) > 0 && len(s.HostConfigs) != s.Hosts {
		return specErr("HostConfigs", "length %d does not match Hosts=%d", len(s.HostConfigs), s.Hosts)
	}
	if len(s.DirectHosts) > 0 && len(s.DirectHosts) != s.Hosts {
		return specErr("DirectHosts", "length %d does not match Hosts=%d", len(s.DirectHosts), s.Hosts)
	}
	if s.Hosts*s.VMsPerHost > maxClusterVMs {
		return specErr("VMsPerHost", "%d hosts x %d VMs exceeds the supported maximum %d",
			s.Hosts, s.VMsPerHost, maxClusterVMs)
	}
	if err := validateHost("VMsPerHost", s.VMsPerHost, s.VCPUs, s.VMCores, s.VhostCores, s.Queues); err != nil {
		return err
	}
	if s.CritPathExemplars < 0 || s.CritPathExemplars > 1024 {
		return specErr("CritPathExemplars", "%d outside [0, 1024]", s.CritPathExemplars)
	}

	f := s.Fabric
	if math.IsNaN(f.PortGbps) || math.IsInf(f.PortGbps, 0) || f.PortGbps > 1000 {
		return specErr("Fabric.PortGbps", "%g outside (0, 1000]", f.PortGbps)
	}
	if math.IsNaN(f.UplinkGbps) || math.IsInf(f.UplinkGbps, 0) || f.UplinkGbps < 0 || f.UplinkGbps > 100_000 {
		return specErr("Fabric.UplinkGbps", "%g outside [0, 100000]", f.UplinkGbps)
	}
	if f.Delay > time.Second {
		return specErr("Fabric.Delay", "%v exceeds the supported maximum 1s", f.Delay)
	}
	if f.QueueCap > maxBytes {
		return specErr("Fabric.QueueCap", "%d exceeds the supported maximum %d", f.QueueCap, maxBytes)
	}

	w := s.Workload
	if err := w.Load.Validate(); err != nil {
		return &SpecError{Field: "Workload.Load", Reason: err.Error()}
	}
	if w.Load.Enabled() {
		if s.Chaos.Enabled() {
			// Chaos recovery (timeouts, retries, failover) lives in the
			// closed-loop client; the open-loop generator never retries.
			return specErr("Workload.Load", "open-loop load and chaos are mutually exclusive")
		}
		if w.RequestTimeout > 0 {
			return specErr("Workload.RequestTimeout", "request deadlines apply to the closed-loop client only; open-loop load never retries")
		}
		// Every class's streams-times-fan-width flows must fit the
		// cluster flow budget.
		total := 0
		for i, cls := range w.Load.Classes {
			width := 1
			if cls.FanOut == "scatter" {
				width = cls.FanWidth
			}
			total += cls.Streams * width
			if total > maxCount {
				return specErr("Workload.Load", "Classes[%d]: total flow count exceeds the supported maximum %d", i, maxCount)
			}
		}
	}
	if w.Flows > maxCount {
		return specErr("Workload.Flows", "%d exceeds the supported maximum %d", w.Flows, maxCount)
	}
	if w.ReqBytes > maxBytes {
		return specErr("Workload.ReqBytes", "%d exceeds the supported maximum %d", w.ReqBytes, maxBytes)
	}
	if w.RespBytes > maxBytes {
		return specErr("Workload.RespBytes", "%d exceeds the supported maximum %d", w.RespBytes, maxBytes)
	}
	if w.ServiceCost > time.Second {
		return specErr("Workload.ServiceCost", "%v exceeds the supported maximum 1s", w.ServiceCost)
	}
	if w.StartSpread > maxDuration {
		return specErr("Workload.StartSpread", "%v exceeds the supported maximum %v", w.StartSpread, maxDuration)
	}
	if w.RequestTimeout != 0 && (w.RequestTimeout < 10*time.Microsecond || w.RequestTimeout > maxDuration) {
		return specErr("Workload.RequestTimeout", "%v outside [10µs, %v]", w.RequestTimeout, maxDuration)
	}
	if w.RetryBackoff < 0 || w.RetryBackoff > maxDuration {
		return specErr("Workload.RetryBackoff", "%v outside [0, %v]", w.RetryBackoff, maxDuration)
	}
	if w.RetryBackoffMax < 0 || w.RetryBackoffMax > maxDuration {
		return specErr("Workload.RetryBackoffMax", "%v outside [0, %v]", w.RetryBackoffMax, maxDuration)
	}
	if w.RequestTimeout == 0 && (w.RetryBackoff > 0 || w.RetryBackoffMax > 0) {
		return specErr("Workload.RetryBackoff", "retry backoff is set but RequestTimeout is zero")
	}
	if w.RetryBackoffMax > 0 && w.RetryBackoff > w.RetryBackoffMax {
		return specErr("Workload.RetryBackoffMax", "%v below RetryBackoff %v", w.RetryBackoffMax, w.RetryBackoff)
	}
	if w.FailoverAfter < 0 || w.FailoverAfter > maxCount {
		return specErr("Workload.FailoverAfter", "%d outside [0, %d]", w.FailoverAfter, maxCount)
	}
	if w.FailoverAfter > 0 && w.RequestTimeout == 0 {
		return specErr("Workload.FailoverAfter", "failover requires RequestTimeout")
	}

	if err := validateWindows(s.Warmup, s.Duration, s.Telemetry, s.TelemetryWindow); err != nil {
		return err
	}
	if err := s.Faults.Validate(); err != nil {
		return &SpecError{Field: "Faults", Reason: err.Error()}
	}
	totalCores := s.VMCores + s.VhostCores
	for _, c := range s.Faults.StormCores {
		if c < 0 || c >= totalCores {
			return specErr("Faults.StormCores", "core %d outside [0, %d) (per-host cores)", c, totalCores)
		}
	}
	if err := s.SLO.Validate(); err != nil {
		return &SpecError{Field: "SLO", Reason: err.Error()}
	}
	if err := s.Chaos.Validate(); err != nil {
		return &SpecError{Field: "Chaos", Reason: err.Error()}
	}
	if s.Chaos.Enabled() {
		// The whole timeline — every fault injected and recovered —
		// must fit the measurement window even in the worst draw, or
		// MTTR would be unmeasurable by construction.
		if end := s.Chaos.MaxTimelineEnd(); end > s.Duration {
			return specErr("Chaos", "worst-case fault timeline (%v) does not fit the %v measurement window", end, s.Duration)
		}
	}
	return nil
}

// Validate reports whether the cluster spec (after defaulting) is
// runnable; RunCluster calls it internally.
func (s ClusterSpec) Validate() error {
	return s.withClusterDefaults().validate()
}

// FabricPortReport is one switch port's traffic over the measurement
// window (port i is host i's NIC).
type FabricPortReport struct {
	Port        int    `json:"port"`
	Name        string `json:"name"`
	TxPkts      uint64 `json:"tx_pkts"`
	TxBytes     uint64 `json:"tx_bytes"`
	RxPkts      uint64 `json:"rx_pkts"`
	RxBytes     uint64 `json:"rx_bytes"`
	EgressDrops uint64 `json:"egress_drops"`
}

// FabricReport summarizes the switch over the measurement window.
type FabricReport struct {
	// Ports is the port count (= hosts).
	Ports int `json:"ports"`
	// Forwarded counts frames that reached an egress wire.
	Forwarded uint64 `json:"forwarded"`
	// RouteDrops and EgressDrops count frames lost in the fabric.
	RouteDrops  uint64 `json:"route_drops"`
	EgressDrops uint64 `json:"egress_drops"`
	// UplinkBytes is backplane traffic; UplinkUtilization is the
	// shared uplink's busy fraction of the window (0 when the switch
	// is non-blocking).
	UplinkBytes       uint64  `json:"uplink_bytes"`
	UplinkUtilization float64 `json:"uplink_utilization"`
	// PerPort lists per-host port traffic in host order.
	PerPort []FabricPortReport `json:"per_port"`
}

// FlowFairness summarizes the per-flow latency scalars across all
// client flows — the tail-vs-median spread the load balancer achieves.
type FlowFairness struct {
	// Flows is the number of flows that completed at least one request
	// in the window.
	Flows int `json:"flows"`
	// MeanOfMeans averages the per-flow mean latencies; MinMean and
	// MaxMean bound them; MaxMax is the worst single request anywhere.
	MeanOfMeans time.Duration `json:"mean_of_means_ns"`
	MinMean     time.Duration `json:"min_mean_ns"`
	MaxMean     time.Duration `json:"max_mean_ns"`
	MaxMax      time.Duration `json:"max_max_ns"`
}

// RecoveryFault is one injected chaos fault with its measured
// recovery. Times are milliseconds relative to the start of the
// measurement window.
type RecoveryFault struct {
	// Kind is the fault class (host_crash, host_freeze, link_flap,
	// link_degrade, egress_blackhole); Target names the victim ("h3"
	// for host faults, "port2" for fabric faults).
	Kind   string `json:"kind"`
	Target string `json:"target"`
	// StartMs/OutageMs locate the injected outage window.
	StartMs  float64 `json:"start_ms"`
	OutageMs float64 `json:"outage_ms"`
	// MTTRMs is the service-level mean-time-to-recover: fault start to
	// the first cluster-wide RPC completion at or after the outage
	// end. -1 when service never recovered inside the window.
	MTTRMs float64 `json:"mttr_ms"`
}

// RecoveryReport summarizes a chaos run's failure and recovery
// behaviour (ClusterResult.Recovery).
type RecoveryReport struct {
	// Faults lists every injected fault in timeline order.
	Faults []RecoveryFault `json:"faults"`

	// Injected tallies by kind.
	HostCrashes  uint64 `json:"host_crashes"`
	HostFreezes  uint64 `json:"host_freezes"`
	LinkFlaps    uint64 `json:"link_flaps"`
	LinkDegrades uint64 `json:"link_degrades"`
	Blackholes   uint64 `json:"blackholes"`

	// LinkDrops counts frames lost to down links across all ports;
	// BlackholeDrops frames silently discarded at blackholed egresses.
	LinkDrops      uint64 `json:"link_drops"`
	BlackholeDrops uint64 `json:"blackhole_drops"`

	// Availability is the fraction of 100 equal sub-windows of the
	// measurement window in which at least one RPC completed
	// cluster-wide; AvailableWindows/TotalWindows are the raw counts.
	Availability     float64 `json:"availability"`
	AvailableWindows int     `json:"available_windows"`
	TotalWindows     int     `json:"total_windows"`

	// DegradedSeconds is total simulated time with at least one fault
	// in effect; the goodput split reports completions per second
	// inside and outside those windows.
	DegradedSeconds   float64 `json:"degraded_seconds"`
	DegradedOpsPerSec float64 `json:"degraded_ops_per_sec"`
	HealthyOpsPerSec  float64 `json:"healthy_ops_per_sec"`

	// Client resilience totals across all flows.
	Timeouts      uint64 `json:"timeouts"`
	Retries       uint64 `json:"retries"`
	MigratedFlows uint64 `json:"migrated_flows"`
	// FlowsUnaccounted counts flows that neither completed a request
	// in the window nor migrated to a survivor — zero in any run whose
	// recovery machinery is keeping up.
	FlowsUnaccounted int `json:"flows_unaccounted"`
}

// ClusterResult carries the outcome of one cluster run: the aggregate
// over all hosts, one Result per host (client hosts carry the latency
// and throughput fields; every host carries its exit/TIG/vhost/IRQ
// metrics), and the fabric's view of the traffic.
type ClusterResult struct {
	Name   string `json:"name"`
	Config Config `json:"config"`
	// MeasuredSeconds is the measurement window length.
	MeasuredSeconds float64 `json:"measured_seconds"`
	// Hosts, VMs and Flows describe the built topology.
	Hosts int `json:"hosts"`
	VMs   int `json:"vms"`
	Flows int `json:"flows"`

	// Aggregate sums/merges across all hosts: exit rates and TIG over
	// every VM, vhost busy over every vhost core, RPC throughput and
	// the cluster-wide latency spectrum.
	Aggregate *Result `json:"aggregate"`
	// PerHost holds one Result per host, in host order, named
	// "<name>/hN".
	PerHost []*Result `json:"per_host"`
	// Fabric summarizes the switch.
	Fabric *FabricReport `json:"fabric"`
	// FlowFairness summarizes the per-flow latency spread.
	FlowFairness *FlowFairness `json:"flow_fairness,omitempty"`

	// CriticalPath is the rack-wide causal critical-path analysis
	// (CritPath runs): aggregate blame, per-(stage, host) rows labeled
	// "hN", tail exemplars with cross-host timelines, and what-if
	// estimates.
	CriticalPath *CriticalPath `json:"critical_path,omitempty"`

	// EngineReport carries wall-clock performance telemetry of the
	// simulator itself (EngineStats runs). It is machine-dependent by
	// nature, so — like the telemetry recorder — it is excluded from
	// the deterministic JSON surface.
	EngineReport *EngineReport `json:"-"`

	// Faults reports cluster-wide injection/recovery activity (nil for
	// fault-free runs); InvariantChecks counts checker sweeps.
	Faults          *FaultReport `json:"faults,omitempty"`
	InvariantChecks uint64       `json:"invariant_checks,omitempty"`

	// Recovery reports chaos-fault recovery behaviour (chaos runs
	// only): per-fault MTTR, availability windows, degraded-window
	// goodput and client resilience totals.
	Recovery *RecoveryReport `json:"recovery,omitempty"`

	// SLO is the service-level-objective report (SLO runs): run-wide
	// compliance per objective plus the deterministic fire/clear alert
	// timeline with correlated chaos/critical-path context. Part of
	// the deterministic JSON surface.
	SLO *SLOReport `json:"slo,omitempty"`

	// Load is the open-loop load report (Workload.Load runs):
	// offered-vs-completed totals, shed and backlog counts, per-phase
	// windows and the collapse knee. Part of the deterministic JSON
	// surface.
	Load *LoadReport `json:"load,omitempty"`

	// Telemetry summarizes the windowed recording (Telemetry runs);
	// the recorder itself is exported separately.
	Telemetry         *TelemetryInfo      `json:"telemetry,omitempty"`
	TelemetryRecorder *telemetry.Recorder `json:"-"`
}
