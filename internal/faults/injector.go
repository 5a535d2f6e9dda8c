package faults

import (
	"fmt"

	"es2/internal/netsim"
	"es2/internal/profile"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/vhost"
	"es2/internal/virtio"
	"es2/internal/vmm"
)

// minEpisode floors exponential draws so fault arrivals can never
// degenerate into a zero-delay event loop.
const minEpisode = sim.Microsecond

// stormChunk is the CPU chunk size of a noisy-neighbor burner; short
// enough that the fair scheduler interleaves it with vCPU slices.
const stormChunk = 100 * sim.Microsecond

// stormWeight makes storm threads 4x a nice-0 task, so an episode
// visibly displaces vCPU time rather than fair-sharing politely.
const stormWeight = 4 * sched.NiceZeroWeight

// Injector owns all fault decisions for one scenario. It draws from a
// private fork of the scenario RNG and installs hook closures into the
// instrumented layers; the layers themselves never see the Spec.
type Injector struct {
	eng  *sim.Engine
	rng  *sim.Rand
	spec Spec

	ios         []*vhost.IOThread
	vcpus       []*vmm.VCPU
	piDownUntil []sim.Time
	storms      []*stormSource

	// Counters is reset at warmup end so Result reports only the
	// measured window.
	Counters Counters
}

// NewInjector creates an injector for spec, forking the given RNG. The
// fork happens exactly once, so the parent stream seen by the rest of
// the simulation is perturbed identically on every run of the same
// spec.
func NewInjector(eng *sim.Engine, rng *sim.Rand, spec Spec) *Injector {
	return &Injector{eng: eng, rng: rng.Fork(), spec: spec}
}

// AttachPort installs wire loss/duplication on one netsim port.
func (inj *Injector) AttachPort(p *netsim.Port) {
	inj.AttachWire(func(fault func() netsim.FaultAction) { p.SendFault = fault })
}

// AttachWire installs wire loss/duplication through a setter owned by
// any wire-like layer exposing netsim's SendFault hook (a link port or
// a fabric switch port). The setter is not called when the spec
// injects no wire faults.
func (inj *Injector) AttachWire(install func(fault func() netsim.FaultAction)) {
	loss, dup := inj.spec.PacketLossProb, inj.spec.PacketDupProb
	if loss <= 0 && dup <= 0 {
		return
	}
	install(func() netsim.FaultAction {
		u := inj.rng.Float64()
		switch {
		case u < loss:
			inj.Counters.WireDrops++
			return netsim.FaultDrop
		case u < loss+dup:
			inj.Counters.WireDups++
			return netsim.FaultDup
		default:
			return netsim.FaultNone
		}
	})
}

// AttachQueue installs lost-kick and lost-signal faults on one
// virtqueue. The fault fires after the notification cost is paid, so
// the kick still counts and still exits — only the edge is lost,
// exactly like a swallowed ioeventfd/irqfd event.
func (inj *Injector) AttachQueue(q *virtio.Virtqueue) {
	if p := inj.spec.LostKickProb; p > 0 {
		q.DropKick = func() bool {
			if inj.rng.Float64() < p {
				inj.Counters.LostKicks++
				return true
			}
			return false
		}
	}
	if p := inj.spec.LostSignalProb; p > 0 {
		q.DropSignal = func() bool {
			if inj.rng.Float64() < p {
				inj.Counters.LostSignals++
				return true
			}
			return false
		}
	}
}

// AttachIOThread registers a vhost worker as a stall target.
func (inj *Injector) AttachIOThread(io *vhost.IOThread) {
	inj.ios = append(inj.ios, io)
}

// AttachVCPU registers a vCPU as a PI-outage target.
func (inj *Injector) AttachVCPU(v *vmm.VCPU) {
	inj.vcpus = append(inj.vcpus, v)
	inj.piDownUntil = append(inj.piDownUntil, 0)
}

// stormSource is a plain WorkSource burning CPU during storm episodes.
// It remembers its owning scheduler so a cluster run can storm several
// hosts (one scheduler each) from one injector.
type stormSource struct {
	sch       *sched.Scheduler
	thread    *sched.Thread
	remaining sim.Time
}

func (s *stormSource) NextChunk() sim.Time {
	if s.remaining <= 0 {
		return 0
	}
	if s.remaining < stormChunk {
		return s.remaining
	}
	return stormChunk
}

func (s *stormSource) Ran(d sim.Time) {
	s.remaining -= d
	if s.remaining < 0 {
		s.remaining = 0
	}
}

func (s *stormSource) ChunkDone() {}

// SetupStorms creates one burner thread per listed core of the given
// scheduler. Call during deterministic build; a cluster calls it once
// per host.
func (inj *Injector) SetupStorms(sch *sched.Scheduler, cores []int) {
	if inj.spec.PreemptStormEvery <= 0 {
		return
	}
	for _, c := range cores {
		src := &stormSource{sch: sch}
		src.thread = sch.NewThread(fmt.Sprintf("storm/core%d", c), c, stormWeight, src)
		inj.storms = append(inj.storms, src)
	}
}

// EnableProfiling attributes the burners' CPU as a "storm" occupant
// under their cores, so noisy-neighbor displacement is visible in the
// profile instead of leaking into idle. Call after SetupStorms.
func (inj *Injector) EnableProfiling(p *profile.Profiler) {
	for _, s := range inj.storms {
		n := p.Core(s.thread.Core()).Child("storm")
		s.thread.Prof = func() *profile.Node { return n }
	}
}

// Start arms the time-driven fault processes (stalls, PI outages,
// storms). Probability-driven faults are active from attach time.
func (inj *Injector) Start() {
	if inj.spec.VhostStallEvery > 0 && len(inj.ios) > 0 {
		inj.armStall()
	}
	if inj.spec.PIOutageEvery > 0 && len(inj.vcpus) > 0 {
		inj.armPIOutage()
	}
	if inj.spec.PreemptStormEvery > 0 && len(inj.storms) > 0 {
		inj.armStorm()
	}
}

// ResetCounters zeroes the fault tallies (called at warmup end).
func (inj *Injector) ResetCounters() { inj.Counters = Counters{} }

// exp draws an exponential duration with the given mean, floored so it
// can never be zero.
func (inj *Injector) exp(mean sim.Time) sim.Time {
	d := inj.rng.ExpDuration(mean)
	if d < minEpisode {
		d = minEpisode
	}
	return d
}

func (inj *Injector) armStall() {
	inj.eng.After(inj.exp(sim.DurationOf(inj.spec.VhostStallEvery)), func() {
		io := inj.ios[inj.rng.Intn(len(inj.ios))]
		inj.Counters.VhostStalls++
		io.InjectStall(inj.exp(sim.DurationOf(inj.spec.VhostStall)))
		inj.armStall()
	})
}

func (inj *Injector) armPIOutage() {
	inj.eng.After(inj.exp(sim.DurationOf(inj.spec.PIOutageEvery)), func() {
		i := inj.rng.Intn(len(inj.vcpus))
		v := inj.vcpus[i]
		d := inj.exp(sim.DurationOf(inj.spec.PIOutage))
		inj.Counters.PIOutages++
		until := inj.eng.Now() + d
		if until > inj.piDownUntil[i] {
			inj.piDownUntil[i] = until
		}
		v.SetPIAvailable(false)
		inj.eng.After(d, func() {
			// A later overlapping outage may have extended the episode.
			if inj.eng.Now() >= inj.piDownUntil[i] {
				v.SetPIAvailable(true)
			}
		})
		inj.armPIOutage()
	})
}

func (inj *Injector) armStorm() {
	inj.eng.After(inj.exp(sim.DurationOf(inj.spec.PreemptStormEvery)), func() {
		inj.Counters.PreemptStorms++
		for _, s := range inj.storms {
			s.remaining += inj.exp(sim.DurationOf(inj.spec.PreemptStorm))
			s.sch.Wake(s.thread)
		}
		inj.armStorm()
	})
}
