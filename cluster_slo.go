package es2

import (
	"es2/internal/sim"
	"es2/internal/slo"
	"es2/internal/workloads"
)

// Cluster SLO wiring: the evaluator watches rack-wide counters the
// simulation already maintains — the cluster latency spectrum and the
// RPC clients' completion/timeout tallies — so an SLO run replays
// byte-identically to a plain run of the same spec.
//
// SLI mapping for a cluster:
//
//   - latency:       bad = cluster-wide RPCs slower than Threshold
//   - availability:  bad = client request deadlines expired (timeouts),
//     total = completions + timeouts
//   - goodput:       completions per second vs MinOpsPerSec
//
// Under open-loop load (Workload.Load) the closed-loop client does not
// exist, so the availability SLI becomes shed-vs-offered — the
// generator's drop counter is exactly the "request the system turned
// away" a datacenter availability SLO measures — and goodput counts
// open-loop completions. The latency mapping is unchanged (the
// open-loop clients observe into the same cluster spectrum).
//
// When chaos is on, alert events carry the list of macro-faults in
// effect at fire/clear time, correlating each breach with its probable
// cause.

// sumClusterClients folds one RPCClient counter across every client VM
// of the rack.
func (cb *clusterBed) sumClusterClients(get func(*workloads.RPCClient) uint64) float64 {
	var n uint64
	for _, h := range cb.hosts {
		for _, c := range h.clients {
			n += get(c)
		}
	}
	return float64(n)
}

// sumClusterLoads folds one open-loop client counter across every
// client VM of the rack.
func (cb *clusterBed) sumClusterLoads(get func(*workloads.OpenLoopClient) uint64) float64 {
	var n uint64
	for _, c := range cb.loads {
		n += get(c)
	}
	return float64(n)
}

// setupClusterSLO builds and binds the streaming evaluator. Called at
// warmup end (before telemetry registration); Start snapshots counter
// baselines, so warmup-era traffic never charges the error budget.
func (cb *clusterBed) setupClusterSLO() {
	ctx := slo.Context{BlameStage: cb.crit.TopStage}
	if cb.chaos != nil {
		ctx.ActiveFaults = cb.chaos.activeFaults
	}
	ev := slo.New(cb.spec.SLO, ctx)
	for i, o := range cb.spec.SLO.Objectives {
		switch o.Kind {
		case slo.KindLatency:
			h, thr := cb.clusterLat, sim.DurationOf(o.Threshold)
			ev.BindCounters(i,
				func() float64 { return float64(h.Count()) },
				func() float64 { return float64(h.CountAbove(thr)) })
		case slo.KindAvailability:
			if cb.loadRT != nil {
				ev.BindCounters(i, func() float64 {
					return cb.sumClusterLoads(func(c *workloads.OpenLoopClient) uint64 { return c.Offered })
				}, func() float64 {
					return cb.sumClusterLoads(func(c *workloads.OpenLoopClient) uint64 { return c.Shed })
				})
				break
			}
			bad := func() float64 {
				return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Timeouts })
			}
			ev.BindCounters(i, func() float64 {
				return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Completed }) + bad()
			}, bad)
		case slo.KindGoodput:
			if cb.loadRT != nil {
				ev.BindGoodput(i, func() float64 {
					return cb.sumClusterLoads(func(c *workloads.OpenLoopClient) uint64 { return c.Completed })
				})
				break
			}
			ev.BindGoodput(i, func() float64 {
				return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Completed })
			})
		}
	}
	cb.sloEval = ev
}
