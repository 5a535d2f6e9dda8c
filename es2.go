// Package es2 is a deterministic discrete-event simulator of the
// virtual I/O event path in a KVM-style virtualized host, built to
// reproduce the ICPP 2017 paper "ES2: Aiming at an Optimal Virtual I/O
// Event Path" (Hu, Zhang, Li, Ma, Wu, Guan).
//
// The simulator models the complete event path — physical cores
// multiplexed by a CFS-style scheduler, VM exits with a calibrated
// cost model, the software-emulated Local-APIC and the hardware
// Posted-Interrupt facility, virtio virtqueues with both directions of
// event suppression, the vhost-net back-end worker, and a guest OS
// with NAPI and TCP/UDP transports. On top of this substrate, ES2
// itself is implemented as published: the hybrid I/O handling scheme
// (Algorithm 1) in the back-end and intelligent interrupt redirection
// over the scheduler's online/offline vCPU lists.
//
// The public API is scenario-oriented:
//
//	res, err := es2.Run(es2.ScenarioSpec{
//	    Name:     "quickstart",
//	    Config:   es2.Full(8),
//	    Workload: es2.WorkloadSpec{Kind: es2.NetperfUDPSend, MsgBytes: 256},
//	})
//
// See the experiments package for ready-made scenario sets that
// regenerate every table and figure of the paper.
package es2

import (
	"time"

	"es2/internal/causal"
	"es2/internal/core"
	"es2/internal/enginestats"
	"es2/internal/faults"
	"es2/internal/profile"
	"es2/internal/slo"
	"es2/internal/telemetry"
	"es2/internal/trace"
	"es2/internal/vmm"
)

// Config selects the event-path configuration, mirroring the paper's
// four evaluated setups (Baseline, PI, PI+H, PI+H+R).
type Config = core.Config

// Policy selects the redirection target policy (ablation knob).
type Policy = core.Policy

// Redirection policies.
const (
	PolicyLeastLoaded = core.PolicyLeastLoaded
	PolicyRoundRobin  = core.PolicyRoundRobin
	PolicyRandom      = core.PolicyRandom
	PolicyOfflineTail = core.PolicyOfflineTail
)

// Baseline returns KVM with posted interrupts disabled.
func Baseline() Config { return core.Baseline() }

// PIOnly returns KVM with posted interrupts enabled.
func PIOnly() Config { return core.PIOnly() }

// PIH returns PI plus hybrid I/O handling with the given quota.
func PIH(quota int) Config { return core.PIH(quota) }

// Full returns the complete ES2 (PI + hybrid + redirection).
func Full(quota int) Config { return core.Full(quota) }

// WorkloadKind enumerates the paper's benchmark workloads.
type WorkloadKind int

const (
	// IdleBurn runs only the CPU-burn fillers (no I/O).
	IdleBurn WorkloadKind = iota
	// NetperfTCPSend streams TCP from the tested VM to the peer.
	NetperfTCPSend
	// NetperfTCPRecv streams TCP from the peer to the tested VM.
	NetperfTCPRecv
	// NetperfUDPSend streams UDP from the tested VM to the peer.
	NetperfUDPSend
	// NetperfUDPRecv streams UDP from the peer to the tested VM.
	NetperfUDPRecv
	// Ping probes the tested VM at a fixed interval (Fig. 7).
	Ping
	// Memcached serves a memaslap-style closed loop (Fig. 8a).
	Memcached
	// Apache serves an ApacheBench-style closed loop (Fig. 8b).
	Apache
	// Httperf serves an open-loop connection-rate sweep (Fig. 9).
	Httperf
)

// String names the workload.
func (k WorkloadKind) String() string {
	switch k {
	case IdleBurn:
		return "idle"
	case NetperfTCPSend:
		return "netperf-tcp-send"
	case NetperfTCPRecv:
		return "netperf-tcp-recv"
	case NetperfUDPSend:
		return "netperf-udp-send"
	case NetperfUDPRecv:
		return "netperf-udp-recv"
	case Ping:
		return "ping"
	case Memcached:
		return "memcached"
	case Apache:
		return "apache"
	case Httperf:
		return "httperf"
	default:
		return "unknown"
	}
}

// WorkloadSpec parameterizes the workload on the tested VM. Zero
// fields take kind-appropriate defaults.
type WorkloadSpec struct {
	Kind WorkloadKind

	// MsgBytes is the netperf message size (default 1024).
	MsgBytes int
	// Threads is the number of concurrent netperf processes (default
	// 1; the Fig. 6 experiments use 4 to load all four vCPUs).
	Threads int
	// Window is the TCP window in segments (default 128).
	Window int
	// UDPRatePPS is the peer's UDP send rate for receive tests
	// (default 450_000).
	UDPRatePPS float64
	// PingInterval is the probe interval (default 100ms — denser than
	// the paper's 1s to gather more samples per simulated second; each
	// probe is independent, so the distribution is unchanged).
	PingInterval time.Duration
	// Concurrency is the closed-loop outstanding-request count
	// (memaslap 256, ApacheBench 16).
	Concurrency int
	// Conns is the memaslap connection count (default 16).
	Conns int
	// PageBytes is the HTTP response size (Apache default 8192,
	// Httperf default 1024).
	PageBytes int
	// ConnRate is the Httperf connection rate per second.
	ConnRate float64
	// SendRatePPS, when positive, paces the netperf UDP sender at a
	// fixed offered rate instead of CPU speed (the low-load regime of
	// the sidecore-polling comparison).
	SendRatePPS float64
	// ServiceCost overrides the server's per-request CPU cost.
	ServiceCost time.Duration
}

// FaultSpec configures deterministic fault injection for a scenario
// (see internal/faults for the knob semantics). The zero value injects
// nothing. All faults draw from the scenario seed, so a faulted run
// replays bit-identically.
type FaultSpec = faults.Spec

// ChaosSpec configures rack-scale macro-fault timelines for a cluster
// run — host crash/freeze windows, link flaps and degradation, egress
// blackholing (see internal/faults for the knob semantics). The zero
// value injects nothing; timelines draw from the cluster seed, so a
// chaotic run replays bit-identically.
type ChaosSpec = faults.ChaosSpec

// SLOSpec declares service-level objectives for a run — latency
// versus a threshold, availability, goodput versus a floor — each
// evaluated streamingly on sim time with Google SRE-style
// multi-window multi-burn-rate alert rules (see internal/slo for the
// knob semantics). The zero value disables SLO evaluation.
// Evaluation is purely observational: results are bit-identical with
// and without it, and the alert timeline replays byte-identically
// under a fixed seed.
type SLOSpec = slo.Spec

// SLOObjective is one declared objective of an SLOSpec.
type SLOObjective = slo.Objective

// SLOReport is the deterministic SLO outcome of a run: run-wide
// compliance per objective plus the fire/clear alert timeline with
// correlated context (Result.SLO / ClusterResult.SLO).
type SLOReport = slo.Report

// SLOEvent is one fire/clear entry of the alert timeline.
type SLOEvent = slo.Event

// SLO objective kinds.
const (
	SLOLatency      = slo.KindLatency
	SLOAvailability = slo.KindAvailability
	SLOGoodput      = slo.KindGoodput
)

// ScenarioSpec describes one simulated testbed run.
type ScenarioSpec struct {
	// Name labels the run in results.
	Name string
	// Seed drives all randomness; the same spec and seed reproduce
	// bit-identical results.
	Seed uint64

	// Config is the event-path configuration under test.
	Config Config
	// Workload runs on the tested VM (VM 0).
	Workload WorkloadSpec

	// VMs is the number of virtual machines (default 1). All VMs run
	// the CPU-burn fillers; only VM 0 runs the workload, following the
	// paper's methodology.
	VMs int
	// VCPUs is the per-VM vCPU count (default 1).
	VCPUs int
	// VMCores is the number of physical cores the VMs time-share
	// (default VCPUs, i.e. no multiplexing with a single VM).
	VMCores int
	// VhostCores is the number of cores for vhost workers (default:
	// one per VM, at most 4 — the paper's testbed had 8 cores, 4 for
	// VMs).
	VhostCores int
	// Queues is the number of virtio-net queue pairs per VM (default
	// 1). Multiqueue gives each pair its own MSI-X vectors, NAPI
	// context and vhost worker, with queue i affine to vCPU i — the
	// scalability direction the paper's conclusion points at.
	Queues int

	// CoalesceCount / CoalesceTimer enable receive interrupt moderation
	// in the back-end (the vIC-style alternative of Section II-C):
	// the guest is interrupted only after CoalesceCount packets or
	// CoalesceTimer, whichever first. Zero disables moderation. Used
	// by the moderation ablation to demonstrate the latency cost the
	// paper argues motivates retaining all interrupts.
	CoalesceCount int
	CoalesceTimer time.Duration

	// DirectAssign models SR-IOV direct device assignment (the paper's
	// Section VII): the guest's doorbell writes reach the assigned VF
	// without VM exits, so I/O-request exits disappear by construction;
	// interrupt delivery still follows Config (VT-d PI when Config.PI,
	// redirection when Config.Redirect). Config.Hybrid is meaningless
	// here and ignored.
	DirectAssign bool

	// Sidecore replaces the notification/hybrid back-end with
	// ELVIS-style dedicated-core polling (Section II-C "Others"):
	// exit-less I/O requests at the price of a busy worker core even
	// when idle. Mutually exclusive with Config.Hybrid.
	Sidecore bool

	// PathTrace enables the event-path spectra: every packet carries an
	// open span that the host's event-path probe closes at each stage
	// boundary (doorbell, vhost dequeue, wire send and arrival, used-ring
	// publish, interrupt injection, vCPU on-core, handler entry, NAPI
	// collect, protocol dispatch), so stream workloads are timed in the
	// same stages as ScenarioSpec.CritPath's chains. Spans are
	// histogrammed per stage over the measurement window and reported
	// as Result.PathBreakdown. Periodic state probes (queue depths,
	// backlog, online/offline list lengths, runqueue lengths) are
	// sampled into Result.Probes. Off by default; without PathTrace,
	// Timeline or CritPath the probe is nil and costs nothing.
	PathTrace bool

	// Timeline additionally records an execution timeline — one track
	// per physical core, vCPU and vhost worker — exported as
	// Chrome-trace JSON via Result.Timeline.WriteJSON (loadable in
	// Perfetto). Implies PathTrace. Identical spec and seed produce a
	// byte-identical timeline.
	Timeline bool

	// CPUProfile enables the simulated-CPU profiler: every simulated
	// nanosecond of every core over the measurement window is
	// attributed to a hierarchical context (core → occupant → guest
	// task / exit reason / vhost activity), exactly at event boundaries
	// — no statistical sampling. Result.CPUProfile holds the full tree
	// (export with WritePprof for `go tool pprof`/speedscope or
	// WriteFolded for flamegraph tooling); Result.CPUReport is the
	// compact summary. Attribution is exact: the profiler's guest share
	// equals Result.TIG and its vhost busy share equals Result.VhostCPU.
	// Off by default; profiling never perturbs the simulation — results
	// are bit-identical with and without it.
	CPUProfile bool

	// Telemetry enables the windowed telemetry recorder: every
	// TelemetryWindow of simulated time, the headline metrics —
	// per-reason exit rates, TIG, vhost busy fraction, per-queue
	// virtqueue depth, device-IRQ/redirect/offline-predict rates, TCP
	// retransmits, active-fault state — are sampled as named series by
	// snapshotting the existing counters and deriving windowed deltas.
	// Three latency classes are additionally instrumented at their
	// natural points (interrupt delivery split posted vs. emulated,
	// TX virtqueue residency, vCPU wakeup-to-run delay) and reported
	// as full percentile spectra in Result.LatencyProfiles. Export the
	// series with Result.TelemetryRecorder.WriteOpenMetrics/WriteCSV
	// (or es2sim -telemetry-dir / -metrics, es2bench -telemetry-dir).
	// Off by default; recording never perturbs the simulation —
	// results are bit-identical with and without it, and exports are
	// byte-identical under a fixed seed.
	Telemetry bool
	// TelemetryWindow is the sampling window (default 10ms of
	// simulated time). Smaller windows resolve faster transients at
	// the cost of proportionally more rows in the exports.
	TelemetryWindow time.Duration

	// CritPath enables the causal critical-path analyzer: every
	// completed request/response pair of the Ping and Memcached
	// workloads (and of the cluster runner's RPC flows) threads a
	// causal chain through the full event
	// path (TX doorbell → vhost dequeue → wire → service → return →
	// interrupt delivery → wakeup → guest RX), and Result.CriticalPath
	// reports the per-stage blame profile, the slowest requests with
	// their full stage timelines, and Coz-style what-if estimates of
	// the end-to-end effect of speeding any one stage up. Per-stage
	// durations telescope to exactly the measured end-to-end latency.
	// Off by default; tracking is purely observational — results are
	// bit-identical with and without it, and the report replays
	// byte-identically under a fixed seed.
	CritPath bool
	// CritPathExemplars is the number of slowest requests retained with
	// full timelines (default 8, max 1024).
	CritPathExemplars int

	// SLO declares service-level objectives evaluated streamingly over
	// the measurement window (latency vs. threshold, availability,
	// goodput vs. floor) with multi-window multi-burn-rate alert
	// rules; Result.SLO carries the compliance report and the
	// deterministic fire/clear alert timeline. Latency and goodput
	// objectives require a workload that measures request completions
	// (Ping, Memcached, Apache, Httperf); availability objectives use
	// delivered-vs-lost wire traffic and work for every I/O workload.
	// Zero value: no SLOs.
	SLO SLOSpec

	// Load, when non-zero, replaces the closed-loop generator of a
	// Memcached workload with the open-loop load generator: the
	// external peer arms arrivals on the sim clock per Load's classes
	// and day profile regardless of completions, so offered load can
	// exceed the host's capacity and queueing collapse becomes
	// observable. Requires Workload.Kind == Memcached and single
	// fan-out (there is one host under test); Result.Load reports
	// offered-vs-completed, shed, backlog, per-phase spectra and the
	// collapse knee.
	Load LoadSpec

	// EngineStats enables wall-clock performance telemetry of the
	// simulation engine itself: real time and allocations spent running
	// the event loop, heap push/pop counts and depth, the
	// events-per-sim-tick distribution, and sampled per-subsystem
	// wall/allocation attribution charged at event-callback boundaries
	// (sampling 1 in DefaultEngineStatsSampleN callbacks bounds the
	// overhead; EXPERIMENTS.md records the measured figure).
	// Result.EngineReport carries the report. Stats never perturb the
	// simulation: simulated results are byte-identical with and without
	// them, only real-world timings are read. Wall-clock values are
	// machine-dependent, so the report is excluded from Result's
	// deterministic JSON; the CLIs render it separately.
	EngineStats bool

	// testCosts, when non-nil, overrides the hypervisor cost model.
	// Unexported: only the what-if validation tests use it, to compare
	// a predicted speedup against an actually-cheapened mechanism.
	testCosts *vmm.CostModel

	// Faults configures deterministic fault injection: wire loss and
	// duplication, lost kicks/signals, vhost stalls, PI outages and
	// preemption storms, each paired with the recovery mechanism the
	// real stack has (TX watchdog, retransmission, vhost re-poll, PI
	// fallback). Zero value: fault-free.
	Faults FaultSpec

	// Check enables the runtime invariant checker: a periodic sweep
	// verifying virtqueue accounting, APIC ISR/IRR discipline,
	// scheduler online/offline list consistency and sim-clock
	// monotonicity. Violations panic (they are simulator bugs, not
	// scenario outcomes). Also enabled by the ES2_CHECK environment
	// variable, which is how CI turns it on globally.
	Check bool

	// Warmup precedes measurement (default 300ms of simulated time);
	// Duration is the measurement window (default 1s).
	Warmup   time.Duration
	Duration time.Duration
}

// Validate reports whether the spec (after defaulting) is runnable.
// Run calls it internally; it is exported so front-ends can reject bad
// specs before committing to a run.
func (s ScenarioSpec) Validate() error {
	return s.withDefaults().validate()
}

// PathStage is one stage of the event-path latency breakdown (see
// ScenarioSpec.PathTrace). Stages carry the critical-path stage names
// and appear in path order: notify-exit, notify-poll, backend-tx, wire,
// backend-rx, signal, wakeup, irq-posted, irq-emulated, ring-wait,
// guest-rx. Stages no span crossed are omitted.
type PathStage struct {
	// Stage names the event-path stage.
	Stage string `json:"stage"`
	// Count is the number of traversals observed in the window.
	Count uint64 `json:"count"`
	// Mean, P50, P99 and Max summarize the stage latency. Mean and Max
	// are exact; the percentiles carry the log-bucketed histogram's
	// sub-1% relative error.
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	Max  time.Duration `json:"max_ns"`
}

// ProbePoint is one sample of a periodic state probe.
type ProbePoint struct {
	// AtSeconds is the sample's simulated timestamp.
	AtSeconds float64 `json:"at"`
	// Value is the sampled quantity.
	Value float64 `json:"value"`
}

// ProbeSeries is one periodically sampled state variable (virtqueue
// depth, vhost backlog, online/offline list length, runqueue length).
type ProbeSeries struct {
	Name   string       `json:"name"`
	Points []ProbePoint `json:"points"`
}

// RTTPoint is one ping sample of the Fig. 7 series.
type RTTPoint struct {
	// AtSeconds is the sample's simulated timestamp.
	AtSeconds float64 `json:"at"`
	// Millis is the round-trip time in milliseconds.
	Millis float64 `json:"ms"`
}

// Result carries everything the paper's evaluation reports, measured
// over the scenario's measurement window on the tested VM.
//
// The JSON encoding uses stable snake_case keys (documented under
// "Machine-readable results" in EXPERIMENTS.md); duration fields
// serialize as integer nanoseconds with an explicit _ns suffix in the
// key. Fields excluded from JSON (Timeline, CPUProfile) have their own
// export formats.
type Result struct {
	Name   string `json:"name"`
	Config Config `json:"config"`
	// MeasuredSeconds is the measurement window length.
	MeasuredSeconds float64 `json:"measured_seconds"`

	// ExitRates maps exit reason → exits per second; TotalExitRate and
	// IOExitRate are the headline aggregates.
	ExitRates     map[string]float64 `json:"exit_rates"`
	TotalExitRate float64            `json:"total_exit_rate"`
	IOExitRate    float64            `json:"io_exit_rate"`
	// TIG is the time-in-guest fraction (0..1).
	TIG float64 `json:"tig"`
	// VhostCPU is the fraction of the vhost worker cores' time spent
	// busy over the window (1.0 = a fully burned core; the
	// wasted-cycles metric of the sidecore-polling comparison).
	VhostCPU float64 `json:"vhost_cpu"`

	// DevIRQRate is delivered device interrupts per second;
	// RedirectRate is the fraction of eligible interrupts that were
	// redirected away from their affinity vCPU; OfflinePredictRate is
	// the fraction of routed interrupts that found no online vCPU and
	// fell back to the offline-list prediction (the vCPU-stacking
	// statistic of Section IV-C).
	DevIRQRate         float64 `json:"dev_irq_rate"`
	RedirectRate       float64 `json:"redirect_rate"`
	OfflinePredictRate float64 `json:"offline_predict_rate"`

	// ThroughputMbps is goodput for stream/HTTP workloads.
	ThroughputMbps float64 `json:"throughput_mbps"`
	// PktRate is packets per second at the measuring end.
	PktRate float64 `json:"pkt_rate"`
	// OpsPerSec is request throughput for Memcached/Apache.
	OpsPerSec float64 `json:"ops_per_sec"`

	// Latency statistics: request latency (Memcached), connection time
	// (Httperf/Apache) or RTT (Ping), depending on the workload. Mean
	// and Max are exact; the percentiles carry the log-bucketed
	// histogram's sub-1% relative error.
	MeanLatency time.Duration `json:"mean_latency_ns"`
	P50Latency  time.Duration `json:"p50_latency_ns"`
	P90Latency  time.Duration `json:"p90_latency_ns"`
	P99Latency  time.Duration `json:"p99_latency_ns"`
	P999Latency time.Duration `json:"p999_latency_ns"`
	MaxLatency  time.Duration `json:"max_latency_ns"`

	// RTTSeries is the per-probe trace for Ping workloads.
	RTTSeries []RTTPoint `json:"rtt_series,omitempty"`

	// PathBreakdown attributes event-path latency to the critical-path
	// stages, one cell per stage in path order (filled when
	// ScenarioSpec.PathTrace or Timeline is set).
	PathBreakdown []PathStage `json:"path_breakdown,omitempty"`
	// Probes holds the periodic state-probe series (PathTrace runs).
	Probes []ProbeSeries `json:"probes,omitempty"`
	// Timeline is the recorded execution timeline (Timeline runs);
	// serialize it with WriteJSON. Excluded from JSON results.
	Timeline *trace.Timeline `json:"-"`

	// CPUProfile is the full CPU-attribution tree (CPUProfile runs);
	// export it with WritePprof (pprof protobuf, gzip) or WriteFolded
	// (folded stacks). Excluded from JSON results — use CPUReport.
	CPUProfile *profile.Profiler `json:"-"`
	// CPUReport is the compact CPU-attribution summary (CPUProfile
	// runs): top contexts, per-core utilization, exit-cycle totals.
	CPUReport *CPUReport `json:"cpu_report,omitempty"`

	// Telemetry summarizes the windowed recording (Telemetry runs);
	// LatencyProfiles carries the full percentile spectrum of each
	// instrumented latency class. TelemetryRecorder is the recorder
	// itself — export with WriteOpenMetrics (Prometheus/OpenMetrics
	// text) or WriteCSV (per-window series); excluded from JSON.
	Telemetry         *TelemetryInfo      `json:"telemetry,omitempty"`
	LatencyProfiles   []LatencyProfile    `json:"latency_profiles,omitempty"`
	TelemetryRecorder *telemetry.Recorder `json:"-"`

	// CriticalPath is the causal critical-path analysis (CritPath
	// runs): per-stage blame, tail exemplars and what-if estimates.
	CriticalPath *CriticalPath `json:"critical_path,omitempty"`

	// EngineReport is the engine's wall-clock performance report
	// (EngineStats runs): real time, events/sec, heap behavior,
	// per-subsystem wall/allocation attribution and GC activity.
	// Excluded from JSON — wall-clock values are machine-dependent and
	// nondeterministic, and Result's JSON surface stays byte-identical
	// across identical-seed runs; the CLIs render it, and the benchmark
	// module (bench/) reads its per-layer figures.
	EngineReport *EngineReport `json:"-"`

	// SLO is the service-level-objective report (SLO runs): run-wide
	// compliance per objective plus the deterministic fire/clear alert
	// timeline. Part of the deterministic JSON surface.
	SLO *SLOReport `json:"slo,omitempty"`

	// Load is the open-loop load report (ScenarioSpec.Load runs):
	// offered-vs-completed totals, shed and backlog counts, per-phase
	// windows and the collapse knee. Part of the deterministic JSON
	// surface.
	Load *LoadReport `json:"load,omitempty"`

	// Faults reports fault-injection and recovery activity over the
	// window (nil for fault-free runs).
	Faults *FaultReport `json:"faults,omitempty"`
	// InvariantChecks is the number of invariant sweeps that passed
	// (zero unless ScenarioSpec.Check or ES2_CHECK enabled the checker).
	InvariantChecks uint64 `json:"invariant_checks,omitempty"`

	// Raw counters over the window (wire side of the tested VM).
	TxPkts uint64 `json:"tx_pkts"`
	RxPkts uint64 `json:"rx_pkts"`
	Drops  uint64 `json:"drops"`
}

// CPUContext is one attributed context of the CPU report: a full stack
// path ("core0;vm0/vcpu0;guest;user;burn") with the simulated time
// charged directly to it (excluding children).
type CPUContext struct {
	Stack string `json:"stack"`
	Nanos int64  `json:"nanos"`
	// Share is Nanos over the total core-time of the window
	// (window × cores).
	Share float64 `json:"share"`
}

// CoreUsage summarizes one core's measurement window.
type CoreUsage struct {
	Core int `json:"core"`
	// Busy is the non-idle fraction of the window.
	Busy float64 `json:"busy"`
	// Occupants maps occupant name (vCPU thread, vhost worker, storm,
	// idle) to its fraction of the window.
	Occupants map[string]float64 `json:"occupants"`
}

// CPUReport is the compact summary of a CPU profile (see
// ScenarioSpec.CPUProfile).
type CPUReport struct {
	// WindowSeconds is the profiled window length.
	WindowSeconds float64 `json:"window_seconds"`
	// Cores is per-core utilization, in core order.
	Cores []CoreUsage `json:"cores"`
	// Top lists the largest contexts by self time, descending.
	Top []CPUContext `json:"top"`
	// ExitNanos totals VM-exit handling time by exit reason across all
	// vCPUs — the wasted cycles ES2's Algorithm 1 eliminates.
	ExitNanos map[string]int64 `json:"exit_ns"`
	// GuestShare is the profiler's guest-mode share of VM 0's vCPU
	// time; equals Result.TIG by construction.
	GuestShare float64 `json:"guest_share"`
	// VhostBusy is the profiler's vhost busy fraction of the vhost
	// cores; equals Result.VhostCPU by construction.
	VhostBusy float64 `json:"vhost_busy"`
}

// TelemetryInfo summarizes a windowed telemetry recording (see
// ScenarioSpec.Telemetry).
type TelemetryInfo struct {
	// WindowMs is the sampling window in simulated milliseconds.
	WindowMs float64 `json:"window_ms"`
	// Windows is the number of closed sampling windows.
	Windows int `json:"windows"`
	// Series is the number of recorded series (probes + histograms).
	Series int `json:"series"`
}

// LatencyProfile is the full percentile spectrum of one instrumented
// latency class over the measurement window (see
// ScenarioSpec.Telemetry). Classes: "irq-delivery" (APIC injection →
// guest handler entry; labels "posted"/"emulated"), "vq-residency"
// (avail-publish → vhost dequeue; one profile per TX queue) and
// "vcpu-wakeup" (scheduler wakeup → running). Mean and Max are exact;
// percentiles carry the histogram's sub-1% bucket error.
type LatencyProfile struct {
	Class string        `json:"class"`
	Label string        `json:"label,omitempty"`
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}

// CriticalPath is the causal critical-path analysis of one run (see
// ScenarioSpec.CritPath): the per-stage blame profile (with per-host
// rows in cluster runs), the slowest requests with their full stage
// timelines, and Coz-style what-if speedup estimates. JSON keys are
// stable snake_case with _ns duration suffixes, like the rest of
// Result.
type CriticalPath = causal.Report

// CriticalPathStage is one (stage[, host]) blame row.
type CriticalPathStage = causal.StageBlame

// CriticalPathExemplar is one retained slowest request with its full
// stage timeline.
type CriticalPathExemplar = causal.Exemplar

// CriticalPathWhatIf is one Coz-style what-if estimate: the predicted
// end-to-end percentile shifts from speeding one stage up.
type CriticalPathWhatIf = causal.WhatIf

// DefaultWhatIfSpeedup is the virtual speedup Report evaluates for
// every traversed stage.
const DefaultWhatIfSpeedup = causal.DefaultWhatIfSpeedup

// EngineReport is the engine's wall-clock performance report (see
// ScenarioSpec.EngineStats): real time and allocation cost of running
// the event loop, heap behavior, the events-per-sim-tick distribution
// and sampled per-subsystem attribution. JSON keys are stable
// snake_case; values are machine-dependent real-world measurements.
type EngineReport = enginestats.Report

// EngineHeapStats summarizes event-queue behavior inside an
// EngineReport.
type EngineHeapStats = enginestats.HeapStats

// EngineSubsystemRow is one sampled wall/allocation attribution row of
// an EngineReport, labeled by the scheduling Go package.
type EngineSubsystemRow = enginestats.SubsystemRow

// DefaultEngineStatsSampleN is the 1-in-N event-callback sampling
// interval behind EngineStats and ClusterSpec.EngineStats.
const DefaultEngineStatsSampleN = enginestats.DefaultSampleN

// FaultReport summarizes injected faults and the recovery work they
// triggered, measured over the scenario's measurement window.
type FaultReport struct {
	// Injected is the total number of fault events.
	Injected uint64 `json:"injected"`
	// Per-fault tallies.
	WireDrops     uint64 `json:"wire_drops"`
	WireDups      uint64 `json:"wire_dups"`
	LostKicks     uint64 `json:"lost_kicks"`
	LostSignals   uint64 `json:"lost_signals"`
	VhostStalls   uint64 `json:"vhost_stalls"`
	PIOutages     uint64 `json:"pi_outages"`
	PreemptStorms uint64 `json:"preempt_storms"`
	// Recovery-side tallies: transport retransmission timeouts (guest
	// and peer), guest TX-watchdog re-kicks, vhost re-poll recoveries,
	// and posted→emulated delivery fallbacks.
	Retransmits   uint64 `json:"retransmits"`
	WatchdogFires uint64 `json:"watchdog_fires"`
	VhostRePolls  uint64 `json:"vhost_repolls"`
	PIFallbacks   uint64 `json:"pi_fallbacks"`
}
