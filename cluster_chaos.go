package es2

import (
	"fmt"
	"sort"

	"es2/internal/faults"
	"es2/internal/sim"
	"es2/internal/vhost"
)

// availWindows is the sub-window count behind RecoveryReport's
// availability metric.
const availWindows = 100

// chaosFault is one scheduled macro-fault with its measured recovery.
type chaosFault struct {
	ev    faults.ChaosEvent
	start sim.Time // absolute injection instant
	end   sim.Time // absolute outage end
	// mttr is fault start to the first cluster-wide RPC completion at
	// or after end; -1 until (unless) that completion happens.
	mttr sim.Time
}

// chaosController drives a cluster's chaos timeline: it injects the
// scheduled macro-faults, answers the clients' failover requests by
// rebinding routes in the rack's route table, and keeps the recovery
// bookkeeping (MTTR, availability windows, degraded-phase goodput)
// that collect turns into ClusterResult.Recovery. All state changes
// happen inside engine events, so chaotic runs replay byte-identically.
type chaosController struct {
	cb *clusterBed

	faults     []*chaosFault // timeline order
	unresolved []*chaosFault // awaiting first post-outage completion, by end

	hostDown  []bool
	downHosts int

	// active counts faults currently in effect; transitions accumulate
	// degraded time.
	active       int
	degradedFrom sim.Time
	degradedNs   sim.Time

	winStart sim.Time
	winLen   sim.Time
	buckets  [availWindows]bool

	degradedDone uint64
	healthyDone  uint64
}

// install materializes the timeline from the controller's private RNG
// fork and schedules every fault. Faults start strictly after the
// warmup boundary; spec validation guarantees the whole timeline —
// including recovery — fits the measurement window.
func (cc *chaosController) install(rng *sim.Rand, warm, window sim.Time) {
	cc.winStart = warm
	cc.winLen = window
	spec := cc.cb.spec
	for _, ev := range spec.Chaos.BuildTimeline(rng, spec.Hosts) {
		f := &chaosFault{ev: ev, start: warm + ev.At, end: warm + ev.At + ev.Duration, mttr: -1}
		cc.faults = append(cc.faults, f)
		cc.unresolved = append(cc.unresolved, f)
		cc.cb.eng.At(f.start, func() { cc.apply(f) })
	}
	sort.SliceStable(cc.unresolved, func(i, j int) bool {
		return cc.unresolved[i].end < cc.unresolved[j].end
	})
}

// reset clears the window-scoped bookkeeping at warmup end. The
// timeline itself is untouched: every fault fires after this point.
func (cc *chaosController) reset() {
	cc.degradedNs = 0
	cc.degradedDone, cc.healthyDone = 0, 0
	cc.buckets = [availWindows]bool{}
}

// apply injects one fault and schedules its recovery.
func (cc *chaosController) apply(f *chaosFault) {
	cb := cc.cb
	h := cb.hosts[f.ev.Target]
	if cc.active == 0 {
		cc.degradedFrom = cb.eng.Now()
	}
	cc.active++
	switch f.ev.Kind {
	case faults.ChaosHostCrash:
		// Fail-stop with RAM intact: scheduling tears down, the link
		// drops, the tap backlog is lost; virtqueues and flow state
		// survive for the warm recovery.
		cc.hostDown[h.index] = true
		cc.downHosts++
		h.sch.Freeze()
		h.port.SetLinkDown(f.end)
		for _, d := range h.devs {
			d.DropBacklog()
		}
		cb.eng.At(f.end, func() {
			cc.hostDown[h.index] = false
			cc.downHosts--
			h.sch.Unfreeze()
			cc.expire(f)
		})
	case faults.ChaosHostFreeze:
		// Hard lockup: nothing schedules, but the link stays up and
		// ingress piles into the (bounded) backlogs until the thaw.
		cc.hostDown[h.index] = true
		cc.downHosts++
		h.sch.Freeze()
		cb.eng.At(f.end, func() {
			cc.hostDown[h.index] = false
			cc.downHosts--
			h.sch.Unfreeze()
			cc.expire(f)
		})
	case faults.ChaosLinkFlap:
		h.port.SetLinkDown(f.end)
		cb.eng.At(f.end, func() { cc.expire(f) })
	case faults.ChaosLinkDegrade:
		h.port.SetDegraded(f.end, f.ev.Factor)
		cb.eng.At(f.end, func() { cc.expire(f) })
	case faults.ChaosBlackhole:
		h.port.SetBlackhole(f.end)
		cb.eng.At(f.end, func() { cc.expire(f) })
	}
}

// expire marks one fault's outage window over.
func (cc *chaosController) expire(f *chaosFault) {
	cc.active--
	if cc.active == 0 {
		cc.degradedNs += cc.cb.eng.Now() - cc.degradedFrom
	}
}

// noteCompletion observes every completed RPC (the clients'
// NotifyComplete hook): availability buckets, the degraded/healthy
// goodput split, and MTTR resolution for ended faults.
func (cc *chaosController) noteCompletion(now sim.Time) {
	if now < cc.winStart || cc.winLen <= 0 {
		return
	}
	i := int((now - cc.winStart) * availWindows / cc.winLen)
	if i >= availWindows {
		i = availWindows - 1
	}
	cc.buckets[i] = true
	if cc.active > 0 {
		cc.degradedDone++
	} else {
		cc.healthyDone++
	}
	for len(cc.unresolved) > 0 && now >= cc.unresolved[0].end {
		f := cc.unresolved[0]
		f.mttr = now - f.start
		cc.unresolved = cc.unresolved[1:]
	}
}

// serverImpaired reports whether a server VM's host cannot currently
// serve (scheduler down, or its port dropping/blackholing frames).
func (cc *chaosController) serverImpaired(r vmRef) bool {
	return cc.hostDown[r.h.index] || r.h.port.Impaired()
}

// failover re-balances one flow away from its impaired server: the
// clients call it after FailoverAfter consecutive timeouts. It scans
// the server ring from the current binding for the first healthy VM
// and rebinds the flow's route, which both the switch and the hosts'
// steering read. Returns false when the current server is actually
// healthy (the timeouts had another cause) or no healthy server exists
// yet.
func (cc *chaosController) failover(flowID int) bool {
	cb := cc.cb
	r := cb.route(flowID)
	if r == nil {
		return false
	}
	cur := r.srv
	if !cc.serverImpaired(cb.servers[cur]) {
		return false
	}
	ns := len(cb.servers)
	for off := 1; off < ns; off++ {
		ni := (cur + off) % ns
		if cc.serverImpaired(cb.servers[ni]) {
			continue
		}
		// The old host keeps the flow's device, so frames already on
		// their way there still land, and their stale responses route
		// back to the client, which ignores them by request id.
		old := cb.servers[cur].h.demux
		if old.moved == nil {
			old.moved = make(map[int]*vhost.Device)
		}
		old.moved[flowID] = r.serverDev
		cb.serveFlow(flowID, ni)
		return true
	}
	return false
}

// activeFaults names every fault currently in effect ("host_crash h2",
// "link_flap port5"), using the same target naming as the recovery
// report. The SLO evaluator attaches the list to alert events so a
// fired alert carries its probable cause.
func (cc *chaosController) activeFaults() []string {
	now := cc.cb.eng.Now()
	var names []string
	for _, f := range cc.faults {
		if f.start <= now && now < f.end {
			names = append(names, f.ev.Kind.String()+" "+f.target())
		}
	}
	return names
}

// target names the fault's victim: "hN" for host faults, "portN" for
// fabric faults.
func (f *chaosFault) target() string {
	switch f.ev.Kind {
	case faults.ChaosLinkFlap, faults.ChaosLinkDegrade, faults.ChaosBlackhole:
		return fmt.Sprintf("port%d", f.ev.Target)
	}
	return fmt.Sprintf("h%d", f.ev.Target)
}

// report assembles ClusterResult.Recovery at the horizon.
func (cc *chaosController) report(window sim.Time) *RecoveryReport {
	cb := cc.cb
	deg := cc.degradedNs
	if cc.active > 0 {
		// Defensive: validation keeps every outage inside the window,
		// so this only triggers if a spec change breaks that bound.
		deg += cb.eng.Now() - cc.degradedFrom
	}
	rep := &RecoveryReport{TotalWindows: availWindows}
	for _, f := range cc.faults {
		switch f.ev.Kind {
		case faults.ChaosHostCrash:
			rep.HostCrashes++
		case faults.ChaosHostFreeze:
			rep.HostFreezes++
		case faults.ChaosLinkFlap:
			rep.LinkFlaps++
		case faults.ChaosLinkDegrade:
			rep.LinkDegrades++
		case faults.ChaosBlackhole:
			rep.Blackholes++
		}
		rf := RecoveryFault{
			Kind:     f.ev.Kind.String(),
			Target:   f.target(),
			StartMs:  float64(f.start-cc.winStart) / 1e6,
			OutageMs: float64(f.end-f.start) / 1e6,
			MTTRMs:   -1,
		}
		if f.mttr >= 0 {
			rf.MTTRMs = float64(f.mttr) / 1e6
		}
		rep.Faults = append(rep.Faults, rf)
	}
	for i := 0; i < cb.sw.NumPorts(); i++ {
		p := cb.sw.Port(i)
		rep.LinkDrops += p.LinkDrops
		rep.BlackholeDrops += p.BlackholeDrops
	}
	for _, up := range cc.buckets {
		if up {
			rep.AvailableWindows++
		}
	}
	rep.Availability = float64(rep.AvailableWindows) / float64(availWindows)
	rep.DegradedSeconds = deg.Seconds()
	if deg > 0 {
		rep.DegradedOpsPerSec = float64(cc.degradedDone) / deg.Seconds()
	}
	if healthy := window - deg; healthy > 0 {
		rep.HealthyOpsPerSec = float64(cc.healthyDone) / healthy.Seconds()
	}
	for _, h := range cb.hosts {
		for _, c := range h.clients {
			rep.Timeouts += c.Timeouts
			rep.Retries += c.Retries
			rep.MigratedFlows += c.Migrated
			flows := c.Flows()
			for i := range flows {
				if f := &flows[i]; f.Completed == 0 && !f.Migrated {
					rep.FlowsUnaccounted++
				}
			}
		}
	}
	return rep
}
