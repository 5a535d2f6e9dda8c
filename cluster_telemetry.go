package es2

import (
	"fmt"

	"es2/internal/faults"
	"es2/internal/sim"
	"es2/internal/telemetry"
	"es2/internal/workloads"
)

// Cluster-scale windowed telemetry: one recorder spans the rack, with
// per-host headline series distinguished by a host="hN" label and
// fabric-level series for the switch. Like the single-host wiring,
// everything here is observational — the probes read counters the
// simulation already maintains — so a telemetry run is bit-identical
// to a plain run of the same spec.

// startTelemetry registers every series and begins recording. Called at
// the start of the measurement window, after resetAtWarmupEnd, so the
// recorder's baselines coincide with the scalar result's. The RPC
// latency histograms it exports are the per-host and cluster-wide
// spectra the runner already owns (clusterHost.lat,
// clusterBed.clusterLat).
func (cb *clusterBed) startTelemetry(end sim.Time) {
	rec := telemetry.New(cb.eng, sim.DurationOf(cb.spec.TelemetryWindow))
	cb.tel = rec

	for _, h := range cb.hosts {
		hl := []telemetry.Label{{Key: "host", Value: fmt.Sprintf("h%d", h.index)}}
		rec.Counter("es2_cluster_exits", "VM exits per host, all VMs and reasons.",
			hl, func() float64 {
				var n uint64
				for _, vm := range h.vms {
					n += vm.Exits.Total()
				}
				return float64(n)
			})
		rec.Fraction("es2_cluster_tig", "Time-in-guest fraction per host over the window.",
			hl, func() float64 { g, _ := vcpuTime(h.vms); return g.Seconds() },
			func() float64 { _, t := vcpuTime(h.vms); return t.Seconds() })
		rec.Counter("es2_cluster_vhost_busy_seconds", "CPU seconds of the host's vhost I/O threads.",
			hl, func() float64 { return h.vhostBusy().Seconds() })
		rec.Counter("es2_cluster_dev_irqs", "Device interrupts delivered to the host's VMs.",
			hl, func() float64 {
				var n uint64
				for _, vm := range h.vms {
					n += vm.DevIRQDelivered.Value()
				}
				return float64(n)
			})
		if red := h.es.Redirector; red != nil {
			rec.Counter("es2_cluster_irq_redirected", "Device interrupts redirected to an online vCPU, per host.",
				hl, func() float64 { return float64(red.Redirected) })
		}
		if len(h.clients)+len(h.loads) > 0 {
			rec.Counter("es2_cluster_rpc_completed", "RPC requests completed by the host's client VMs.",
				hl, func() float64 {
					var n uint64
					for _, c := range h.clients {
						n += c.Completed
					}
					for _, c := range h.loads {
						n += c.Completed
					}
					return float64(n)
				})
		}
		if len(h.loads) > 0 {
			for _, lc := range []struct {
				name, help string
				get        func(*workloads.OpenLoopClient) uint64
			}{
				{"es2_loadgen_offered", "Open-loop arrivals offered by the host's client VMs.",
					func(c *workloads.OpenLoopClient) uint64 { return c.Offered }},
				{"es2_loadgen_admitted", "Open-loop arrivals admitted into the system.",
					func(c *workloads.OpenLoopClient) uint64 { return c.Admitted }},
				{"es2_loadgen_shed", "Open-loop arrivals shed at full outstanding caps.",
					func(c *workloads.OpenLoopClient) uint64 { return c.Shed }},
				{"es2_loadgen_completed", "Open-loop logical requests completed (all fan-out legs gathered).",
					func(c *workloads.OpenLoopClient) uint64 { return c.Completed }},
			} {
				rec.Counter(lc.name, lc.help, hl, func() float64 {
					var n uint64
					for _, c := range h.loads {
						n += lc.get(c)
					}
					return float64(n)
				})
			}
			rec.Gauge("es2_loadgen_backlog", "Open-loop requests in flight, sampled at window end.",
				hl, func() float64 {
					n := 0
					for _, c := range h.loads {
						n += c.Backlog()
					}
					return float64(n)
				})
		}
	}
	if rt := cb.loadRT; rt != nil {
		rec.Gauge("es2_loadgen_multiplier", "Effective profile rate multiplier (phase x diurnal curve).",
			nil, func() float64 { return rt.Multiplier(cb.eng.Now()) })
		rec.Gauge("es2_loadgen_phase", "Index of the profile phase in effect.",
			nil, func() float64 { return float64(rt.PhaseIndexAt(cb.eng.Now())) })
	}

	sw := cb.sw
	rec.Counter("es2_fabric_forwarded", "Frames forwarded by the switch.",
		nil, func() float64 { return float64(sw.Forwarded) })
	rec.Counter("es2_fabric_route_drops", "Frames dropped for lack of a route.",
		nil, func() float64 { return float64(sw.RouteDrops) })
	rec.Counter("es2_fabric_egress_drops", "Frames tail-dropped at egress queues, all ports.",
		nil, func() float64 {
			var n uint64
			for i := 0; i < sw.NumPorts(); i++ {
				n += sw.Port(i).EgressDrops
			}
			return float64(n)
		})
	rec.Counter("es2_fabric_uplink_bytes", "Bytes crossing the shared backplane.",
		nil, func() float64 { return float64(sw.UplinkBytes) })
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		rec.Gauge("es2_fabric_egress_queued", "Frames queued at the port's egress, sampled at window end.",
			[]telemetry.Label{{Key: "port", Value: p.Name()}},
			func() float64 { return float64(p.EgressQueued()) })
	}

	if cb.spec.Faults.Enabled() {
		registerFaultSeries(rec, "Faults injected across the cluster, by kind.", cb.faultCounters)
	}

	if cc := cb.chaos; cc != nil {
		chaosKinds := []struct {
			kind string
			k    faults.ChaosKind
		}{
			{"host_crash", faults.ChaosHostCrash},
			{"host_freeze", faults.ChaosHostFreeze},
			{"link_flap", faults.ChaosLinkFlap},
			{"link_degrade", faults.ChaosLinkDegrade},
			{"egress_blackhole", faults.ChaosBlackhole},
		}
		for _, ck := range chaosKinds {
			rec.Counter("es2_chaos_injected", "Chaos faults whose outage window has started, by kind.",
				[]telemetry.Label{{Key: "kind", Value: ck.kind}},
				func() float64 {
					now := cb.eng.Now()
					var n uint64
					for _, f := range cc.faults {
						if f.ev.Kind == ck.k && f.start <= now {
							n++
						}
					}
					return float64(n)
				})
		}
		rec.Gauge("es2_chaos_hosts_down", "Hosts currently crashed or frozen.",
			nil, func() float64 { return float64(cc.downHosts) })
		rec.Gauge("es2_chaos_faults_active", "Chaos faults currently in effect.",
			nil, func() float64 { return float64(cc.active) })
		rec.Counter("es2_chaos_link_drops", "Frames lost to down links, all ports.",
			nil, func() float64 {
				var n uint64
				for i := 0; i < sw.NumPorts(); i++ {
					n += sw.Port(i).LinkDrops
				}
				return float64(n)
			})
		rec.Counter("es2_chaos_blackhole_drops", "Frames discarded at blackholed egresses, all ports.",
			nil, func() float64 {
				var n uint64
				for i := 0; i < sw.NumPorts(); i++ {
					n += sw.Port(i).BlackholeDrops
				}
				return float64(n)
			})
		rec.Counter("es2_chaos_rpc_timeouts", "Client request deadlines expired.",
			nil, func() float64 { return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Timeouts }) })
		rec.Counter("es2_chaos_rpc_retries", "Client requests re-issued after a timeout.",
			nil, func() float64 { return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Retries }) })
		rec.Counter("es2_chaos_flows_migrated", "Flows failed over to a surviving server.",
			nil, func() float64 { return cb.sumClusterClients(func(c *workloads.RPCClient) uint64 { return c.Migrated }) })
	}

	for _, h := range cb.hosts {
		if len(h.clients)+len(h.loads) == 0 {
			continue
		}
		rec.Histogram("es2_cluster_rpc_latency_seconds",
			"End-to-end RPC latency as seen by the host's client VMs.",
			[]telemetry.Label{{Key: "host", Value: fmt.Sprintf("h%d", h.index)}}, h.lat)
	}
	rec.Histogram("es2_cluster_rpc_latency_seconds",
		"End-to-end RPC latency across all client VMs.",
		[]telemetry.Label{{Key: "host", Value: "all"}}, cb.clusterLat)

	registerSLOSeries(rec, cb.sloEval)

	rec.Start(end)
}

// fillClusterTelemetry publishes the finalized recording into the
// result: summary info, the recorder for export, and per-host plus
// cluster-wide RPC latency profiles on the aggregate Result.
func (cb *clusterBed) fillClusterTelemetry(res *ClusterResult) {
	rec := cb.tel
	res.TelemetryRecorder = rec
	res.Telemetry = &TelemetryInfo{
		WindowMs: cb.spec.TelemetryWindow.Seconds() * 1e3,
		Windows:  len(rec.Windows()),
		Series:   rec.SeriesCount(),
	}
	for _, h := range cb.hosts {
		if len(h.clients)+len(h.loads) == 0 {
			continue
		}
		res.Aggregate.LatencyProfiles = append(res.Aggregate.LatencyProfiles,
			latencyProfile("rpc", fmt.Sprintf("h%d", h.index), h.lat))
	}
	res.Aggregate.LatencyProfiles = append(res.Aggregate.LatencyProfiles,
		latencyProfile("rpc", "cluster", cb.clusterLat))
}
