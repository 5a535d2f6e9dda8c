package es2

import (
	"slices"
	"testing"
	"time"

	"es2/internal/vhost"
)

// TestSteeringMatchesTransmitQueue checks the one flow-to-queue rule
// on multiqueue hosts: for every flow, the vhost device a host steers
// the flow's ingress to must be the back-end of the queue pair the
// flow's guest transmits on (guest.NetDev.PairFor), or its responses
// would land on another queue than the one its requests left from.
func TestSteeringMatchesTransmitQueue(t *testing.T) {
	const queues = 3
	t.Run("single host", func(t *testing.T) {
		spec := ScenarioSpec{
			Name: "steer", Seed: 1, Config: Full(0),
			Workload: WorkloadSpec{Kind: Memcached},
			VMs:      1, VCPUs: queues, Queues: queues,
			Warmup: time.Millisecond, Duration: time.Millisecond,
		}.withDefaults()
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		tb, err := build(spec)
		if err != nil {
			t.Fatal(err)
		}
		demux := rxDemux{devs: tb.devsByVM[0]}
		for flow := 0; flow < 4*queues; flow++ {
			checkSteering(t, "host", tb.hostBed, flow, demux.device(flow))
		}
	})
	t.Run("rack", func(t *testing.T) {
		spec := ClusterSpec{
			Name: "steer", Seed: 1, Config: Full(0),
			Hosts: 2, ClientHosts: 1, VMsPerHost: 2,
			VCPUs: queues, VMCores: queues, VhostCores: 2, Queues: queues,
			Workload: ClusterWorkloadSpec{Flows: 8 * queues},
			Warmup:   time.Millisecond, Duration: time.Millisecond,
		}.withClusterDefaults()
		if err := spec.validate(); err != nil {
			t.Fatal(err)
		}
		cb, err := buildCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		flows := 0
		for id := range cb.routes {
			r := cb.route(id)
			if r == nil {
				continue
			}
			flows++
			for _, h := range cb.hosts {
				switch h.port {
				case r.client:
					checkSteering(t, "client host "+h.name, h.hostBed, id, h.demux.device(id))
				case r.server:
					checkSteering(t, "server host "+h.name, h.hostBed, id, h.demux.device(id))
				}
			}
		}
		if flows != spec.Workload.Flows {
			t.Fatalf("checked %d flows, want %d", flows, spec.Workload.Flows)
		}
	})
}

// checkSteering fails t unless dev, the device host h steers flow to,
// holds the TX and RX virtqueues of the pair the flow's VM transmits
// it on.
func checkSteering(t *testing.T, where string, h *hostBed, flow int, dev *vhost.Device) {
	t.Helper()
	for vi, devs := range h.devsByVM {
		if len(devs) != h.hs.queues {
			t.Fatalf("%s: VM %d has %d devices, want one per queue pair (%d)", where, vi, len(devs), h.hs.queues)
		}
		if slices.Contains(devs, dev) {
			p := h.kerns[vi].Dev.PairFor(flow)
			if dev.TXQ != p.TX || dev.RXQ != p.RX {
				t.Errorf("%s: flow %d steered to %s, not to the back-end of queue pair %d it transmits on",
					where, flow, dev.Name, p.Index)
			}
			return
		}
	}
	t.Errorf("%s: flow %d steered to no device of the host", where, flow)
}
