// Package cliflags holds what the es2 command-line tools share: the
// flag families they register, the reading of spec-valued flags and
// the writers for the artifacts they export. es2sim grew the -fault-*
// surface first; keeping the registration here means es2cluster
// exposes the identical flags — same names, same help text, same
// parsing — instead of a drifting copy. Likewise every tool resolves
// its -chaos, -load and -slo values through one Resolve, and names and
// writes its per-scenario files through one Sanitize and one set of
// writers.
package cliflags

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"es2"
	"es2/experiments"
)

// FaultFlags holds the parsed -fault-* values. Register the family
// with RegisterFaultFlags, then call Spec after the flag set parses.
type FaultFlags struct {
	Loss       *float64
	Dup        *float64
	LostKick   *float64
	LostSignal *float64
	StallEvery *time.Duration
	Stall      *time.Duration
	PIEvery    *time.Duration
	PI         *time.Duration
	StormEvery *time.Duration
	Storm      *time.Duration
	StormCores *string
	NoRecovery *bool
}

// RegisterFaultFlags registers the -fault-* flag family on fs and
// returns the handles to read after parsing.
func RegisterFaultFlags(fs *flag.FlagSet) *FaultFlags {
	return &FaultFlags{
		Loss:       fs.Float64("fault-loss", 0, "wire packet loss probability [0,1]"),
		Dup:        fs.Float64("fault-dup", 0, "wire packet duplication probability [0,1]"),
		LostKick:   fs.Float64("fault-lost-kick", 0, "probability a guest->vhost kick edge is lost"),
		LostSignal: fs.Float64("fault-lost-signal", 0, "probability a vhost->guest signal edge is lost"),
		StallEvery: fs.Duration("fault-stall-every", 0, "mean interval between vhost I/O-thread stalls (0 = off)"),
		Stall:      fs.Duration("fault-stall", 0, "mean vhost stall length"),
		PIEvery:    fs.Duration("fault-pi-every", 0, "mean interval between per-vCPU PI outages (0 = off)"),
		PI:         fs.Duration("fault-pi", 0, "mean PI outage length"),
		StormEvery: fs.Duration("fault-storm-every", 0, "mean interval between preemption storms (0 = off)"),
		Storm:      fs.Duration("fault-storm", 0, "mean storm CPU burn per core"),
		StormCores: fs.String("fault-storm-cores", "", "comma-separated core list for storms (default: all VM cores)"),
		NoRecovery: fs.Bool("fault-no-recovery", false, "disable recovery (TX watchdog, TCP RTO, vhost re-poll)"),
	}
}

// Spec assembles the FaultSpec the flags describe. Full validation
// stays with the scenario spec; the only parsing that can fail here is
// the storm-core list.
func (ff *FaultFlags) Spec() (es2.FaultSpec, error) {
	var cores []int
	if *ff.StormCores != "" {
		for _, s := range strings.Split(*ff.StormCores, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return es2.FaultSpec{}, fmt.Errorf("bad -fault-storm-cores %q: %v", *ff.StormCores, err)
			}
			cores = append(cores, n)
		}
	}
	return es2.FaultSpec{
		PacketLossProb: *ff.Loss, PacketDupProb: *ff.Dup,
		LostKickProb: *ff.LostKick, LostSignalProb: *ff.LostSignal,
		VhostStallEvery: *ff.StallEvery, VhostStall: *ff.Stall,
		PIOutageEvery: *ff.PIEvery, PIOutage: *ff.PI,
		PreemptStormEvery: *ff.StormEvery, PreemptStorm: *ff.Storm,
		StormCores: cores, NoRecovery: *ff.NoRecovery,
	}, nil
}

// Resolve reads a spec-valued flag such as -chaos, -load or -slo: an
// empty value is the zero spec (the flag is unset), any of names
// selects the built-in preset, and any other value names a JSON file
// that load reads and validates.
func Resolve[T any](value string, load func(path string) (T, error), preset T, names ...string) (T, error) {
	if value == "" {
		var zero T
		return zero, nil
	}
	if slices.Contains(names, value) {
		return preset, nil
	}
	return load(value)
}

// ResolveSLO reads an -slo value. Every tool that takes the flag reads
// it here, so "default" names the same built-in objective set
// (experiments.DefaultSLO) in each, and any other non-empty value
// names a JSON SLOSpec file.
func ResolveSLO(value string) (es2.SLOSpec, error) {
	return Resolve(value, es2.LoadSLOSpec, experiments.DefaultSLO(), "default")
}
