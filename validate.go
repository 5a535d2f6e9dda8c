package es2

import (
	"fmt"
	"math"
	"time"
)

// SpecError describes one invalid ScenarioSpec field. Run returns it
// (wrapped in nothing) for every bad spec; internal invariant
// violations, by contrast, remain panics.
type SpecError struct {
	Field  string
	Reason string
}

// Error implements error.
func (e *SpecError) Error() string {
	return fmt.Sprintf("es2: invalid spec: %s: %s", e.Field, e.Reason)
}

func specErr(field, format string, args ...any) error {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Resource caps. They bound simulation memory and run time, not the
// model: a spec inside these limits always builds.
const (
	maxVMs      = 32
	maxVCPUs    = 32
	maxCores    = 32
	maxQueues   = 16
	maxThreads  = 64
	maxBytes    = 1 << 20
	maxCount    = 1 << 16
	maxRate     = 1e9 // events/s; keeps pacing intervals >= 1ns
	maxDuration = time.Hour
)

// validate checks a defaulted spec. It is called by Run after
// withDefaults, so zero-value fields have already been filled; what
// remains invalid here is genuinely out of range (negative sizes
// cannot occur — withDefaults replaces non-positive values).
func (s ScenarioSpec) validate() error {
	if err := validateHost("VMs", s.VMs, s.VCPUs, s.VMCores, s.VhostCores, s.Queues); err != nil {
		return err
	}
	if s.Sidecore && s.Config.Hybrid {
		return specErr("Sidecore", "sidecore polling and the hybrid scheme are mutually exclusive")
	}
	if s.Config.Hybrid && s.Config.Quota > maxCount {
		return specErr("Config.Quota", "%d exceeds the supported maximum %d", s.Config.Quota, maxCount)
	}
	if s.CoalesceCount < 0 || s.CoalesceCount > 4096 {
		return specErr("CoalesceCount", "%d outside [0, 4096]", s.CoalesceCount)
	}
	if s.CoalesceTimer < 0 || s.CoalesceTimer > time.Second {
		return specErr("CoalesceTimer", "%v outside [0, 1s]", s.CoalesceTimer)
	}
	if s.CritPathExemplars < 0 || s.CritPathExemplars > 1024 {
		return specErr("CritPathExemplars", "%d outside [0, 1024]", s.CritPathExemplars)
	}
	if err := validateWindows(s.Warmup, s.Duration, s.Telemetry, s.TelemetryWindow); err != nil {
		return err
	}

	w := s.Workload
	if w.Kind < IdleBurn || w.Kind > Httperf {
		return specErr("Workload.Kind", "unknown workload kind %d", w.Kind)
	}
	if w.MsgBytes > maxBytes {
		return specErr("Workload.MsgBytes", "%d exceeds the supported maximum %d", w.MsgBytes, maxBytes)
	}
	if w.Threads > maxThreads {
		return specErr("Workload.Threads", "%d exceeds the supported maximum %d", w.Threads, maxThreads)
	}
	if w.Window > maxBytes {
		return specErr("Workload.Window", "%d exceeds the supported maximum %d", w.Window, maxBytes)
	}
	if w.PageBytes > maxBytes {
		return specErr("Workload.PageBytes", "%d exceeds the supported maximum %d", w.PageBytes, maxBytes)
	}
	if w.Concurrency > maxCount {
		return specErr("Workload.Concurrency", "%d exceeds the supported maximum %d", w.Concurrency, maxCount)
	}
	if w.Conns > maxCount {
		return specErr("Workload.Conns", "%d exceeds the supported maximum %d", w.Conns, maxCount)
	}
	// Rates must be finite and small enough that a pacing interval of
	// 1e9/rate nanoseconds stays positive — a zero interval would spin
	// the event loop at one instant forever. NaN slips through the
	// withDefaults <=0 checks (NaN compares false), so test explicitly.
	for _, rc := range []struct {
		name string
		v    float64
	}{
		{"Workload.UDPRatePPS", w.UDPRatePPS},
		{"Workload.ConnRate", w.ConnRate},
		{"Workload.SendRatePPS", w.SendRatePPS},
	} {
		if math.IsNaN(rc.v) || math.IsInf(rc.v, 0) {
			return specErr(rc.name, "must be finite, got %v", rc.v)
		}
		if rc.v > maxRate {
			return specErr(rc.name, "%g exceeds the supported maximum %g", rc.v, maxRate)
		}
	}
	if w.PingInterval > maxDuration {
		return specErr("Workload.PingInterval", "%v exceeds the supported maximum %v", w.PingInterval, maxDuration)
	}
	if w.ServiceCost > time.Second {
		return specErr("Workload.ServiceCost", "%v exceeds the supported maximum 1s", w.ServiceCost)
	}

	if err := s.SLO.Validate(); err != nil {
		return &SpecError{Field: "SLO", Reason: err.Error()}
	}
	if s.SLO.Enabled() {
		// Latency and goodput objectives need a workload that measures
		// request completions; availability needs wire traffic at all.
		for i, o := range s.SLO.Objectives {
			switch o.Kind {
			case SLOLatency, SLOGoodput:
				switch w.Kind {
				case Ping, Memcached, Apache, Httperf:
				default:
					return specErr("SLO", "Objectives[%d]: %s objectives need a request workload (ping, memcached, apache, httperf), got %v", i, o.Kind, w.Kind)
				}
			case SLOAvailability:
				if w.Kind == IdleBurn {
					return specErr("SLO", "Objectives[%d]: availability objectives need an I/O workload, got %v", i, w.Kind)
				}
			}
		}
	}
	if err := s.Load.Validate(); err != nil {
		return &SpecError{Field: "Load", Reason: err.Error()}
	}
	if s.Load.Enabled() {
		// The open-loop generator replaces Memcached's closed-loop
		// memaslap; other workloads keep their own generators. Fan-out
		// needs multiple server VMs — there is one host under test.
		if w.Kind != Memcached {
			return specErr("Load", "open-loop load requires the memcached workload, got %v", w.Kind)
		}
		for i, cls := range s.Load.Classes {
			if cls.FanOut != "" && cls.FanOut != "single" {
				return specErr("Load", "Classes[%d]: fan-out %q needs a cluster of server VMs; single-host runs support \"single\" only", i, cls.FanOut)
			}
		}
		if s.Load.TotalStreams() > maxCount {
			return specErr("Load", "total stream count %d exceeds the supported maximum %d", s.Load.TotalStreams(), maxCount)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return &SpecError{Field: "Faults", Reason: err.Error()}
	}
	totalCores := s.VMCores + s.VhostCores
	for _, c := range s.Faults.StormCores {
		if c < 0 || c >= totalCores {
			return specErr("Faults.StormCores", "core %d outside [0, %d)", c, totalCores)
		}
	}
	return nil
}

// validateWindows checks the warm-up, measurement and telemetry
// windows shared by ScenarioSpec and ClusterSpec.
func validateWindows(warmup, duration time.Duration, telemetry bool, telemetryWindow time.Duration) error {
	if warmup > maxDuration {
		return specErr("Warmup", "%v exceeds the supported maximum %v", warmup, maxDuration)
	}
	if duration > maxDuration {
		return specErr("Duration", "%v exceeds the supported maximum %v", duration, maxDuration)
	}
	if telemetry {
		// The floor keeps the number of windows (and export size)
		// bounded; the defaults have already filled the zero value.
		if telemetryWindow < 100*time.Microsecond {
			return specErr("TelemetryWindow", "%v below the supported minimum 100µs", telemetryWindow)
		}
		if telemetryWindow > maxDuration {
			return specErr("TelemetryWindow", "%v exceeds the supported maximum %v", telemetryWindow, maxDuration)
		}
	}
	return nil
}

// validateHost checks the per-host shape caps shared by ScenarioSpec
// and ClusterSpec; vmsField names the VM-count field in errors.
func validateHost(vmsField string, vms, vcpus, vmCores, vhostCores, queues int) error {
	if vms > maxVMs {
		return specErr(vmsField, "%d exceeds the supported maximum %d", vms, maxVMs)
	}
	if vcpus > maxVCPUs {
		return specErr("VCPUs", "%d exceeds the supported maximum %d", vcpus, maxVCPUs)
	}
	if vmCores > maxCores {
		return specErr("VMCores", "%d exceeds the supported maximum %d", vmCores, maxCores)
	}
	if vhostCores > maxCores {
		return specErr("VhostCores", "%d exceeds the supported maximum %d", vhostCores, maxCores)
	}
	if vcpus > vmCores*4 {
		return specErr("VCPUs", "%d vCPUs over %d cores exceeds supported multiplexing", vcpus, vmCores)
	}
	if queues > maxQueues {
		return specErr("Queues", "%d exceeds the supported maximum %d", queues, maxQueues)
	}
	return nil
}
