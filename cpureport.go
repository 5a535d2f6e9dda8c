package es2

import (
	"fmt"
	"sort"
	"strings"

	"es2/internal/profile"
	"es2/internal/sim"
)

// reportTopN bounds the Top context list of CPUReport; the full tree
// stays available through Result.CPUProfile.
const reportTopN = 15

// buildCPUReport condenses the finalized attribution tree into the
// Result summary.
func buildCPUReport(p *profile.Profiler, vhostCores int, window sim.Time) *CPUReport {
	rep := &CPUReport{
		WindowSeconds: window.Seconds(),
		ExitNanos:     make(map[string]int64),
	}
	for i := 0; i < p.NumCores(); i++ {
		c := p.Core(i)
		cu := CoreUsage{Core: i, Occupants: make(map[string]float64)}
		var busy sim.Time
		for _, occ := range c.Children() {
			t := occ.Total()
			if t == 0 {
				continue
			}
			cu.Occupants[occ.Name()] = float64(t) / float64(window)
			if occ.Kind() != profile.KindIdle {
				busy += t
			}
		}
		cu.Busy = float64(busy) / float64(window)
		rep.Cores = append(rep.Cores, cu)
	}

	// Samples come out lexically sorted; a stable resort by value keeps
	// the lexical order among ties, so the report is deterministic.
	samples := p.Samples()
	sort.SliceStable(samples, func(i, j int) bool {
		return samples[i].Value > samples[j].Value
	})
	totalCoreTime := float64(window) * float64(p.NumCores())
	for i, s := range samples {
		if i >= reportTopN {
			break
		}
		rep.Top = append(rep.Top, CPUContext{
			Stack: strings.Join(s.Stack, ";"),
			Nanos: int64(s.Value),
			Share: float64(s.Value) / totalCoreTime,
		})
	}
	for name, t := range p.ExitTotals() {
		rep.ExitNanos[name] = int64(t)
	}
	rep.GuestShare = p.GuestShare(0)
	rep.VhostBusy = vhostCPU(p.VhostBusy(), window, vhostCores)
	return rep
}

// Render returns the report as the human-readable block the CLIs print.
func (rep *CPUReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU profile (%.3fs window, exact attribution):\n", rep.WindowSeconds)
	fmt.Fprintf(&b, "  guest share %.4f  vhost busy %.4f\n", rep.GuestShare, rep.VhostBusy)
	for _, cu := range rep.Cores {
		fmt.Fprintf(&b, "  core%-2d busy %5.1f%%", cu.Core, cu.Busy*100)
		names := make([]string, 0, len(cu.Occupants))
		for n := range cu.Occupants {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool {
			if cu.Occupants[names[i]] != cu.Occupants[names[j]] {
				return cu.Occupants[names[i]] > cu.Occupants[names[j]]
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			fmt.Fprintf(&b, "  %s %.1f%%", n, cu.Occupants[n]*100)
		}
		b.WriteByte('\n')
	}
	if len(rep.ExitNanos) > 0 {
		reasons := make([]string, 0, len(rep.ExitNanos))
		for name := range rep.ExitNanos {
			reasons = append(reasons, name)
		}
		sort.Strings(reasons)
		b.WriteString("  exit cycles:")
		for _, name := range reasons {
			fmt.Fprintf(&b, "  %s %.3fms", strings.TrimPrefix(name, "exit:"),
				float64(rep.ExitNanos[name])/1e6)
		}
		b.WriteByte('\n')
	}
	b.WriteString("  top contexts (self time):\n")
	for _, c := range rep.Top {
		fmt.Fprintf(&b, "    %6.2f%%  %s\n", c.Share*100, c.Stack)
	}
	return b.String()
}
