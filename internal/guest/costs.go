// Package guest models the guest operating system: the virtio-net
// front-end driver with NAPI, interrupt handlers registered in the
// guest IDT, simplified TCP/UDP transports, and guest processes
// (benchmark applications, CPU-burn fillers) that execute as vCPU
// tasks.
package guest

import "es2/internal/sim"

// Costs are the guest-side CPU costs. Like vmm.CostModel they are
// calibration constants, centralized here and documented in
// EXPERIMENTS.md.
type Costs struct {
	// TXPrepBase is the per-packet cost of producing one outbound
	// packet in process context: syscall, sk_buff allocation,
	// TCP/UDP/IP stack, driver enqueue.
	TXPrepBase sim.Time
	// TXPrepPerByte adds the copy cost, in nanoseconds per byte.
	TXPrepPerByte float64
	// TCPExtra is added to TXPrepBase for TCP segments (checksum,
	// congestion bookkeeping vs the leaner UDP path).
	TCPExtra sim.Time
	// RXBase is the per-packet receive-path cost in softirq context.
	RXBase sim.Time
	// RXPerByte adds the receive copy cost, per byte.
	RXPerByte float64
	// RXProtocol is the softirq-only protocol cost per TCP segment when
	// the copy to userspace is charged separately (two-stage receive).
	RXProtocol sim.Time
	// RXCopyBase and RXCopyPerByte price the process-context
	// copy-to-userspace stage of TCP receive (the recv() side).
	RXCopyBase    sim.Time
	RXCopyPerByte float64
	// AckRX is the cost of processing one incoming pure ACK.
	AckRX sim.Time
	// AckTX is the cost of building and enqueueing one outbound ACK
	// from softirq context.
	AckTX sim.Time
	// NAPIPoll is the fixed overhead of one NAPI poll round.
	NAPIPoll sim.Time
	// IRQHandler is the device ISR body (reading the ISR status,
	// scheduling NAPI).
	IRQHandler sim.Time
	// BurnChunk is the chunk length of the lowest-priority CPU-burn
	// filler.
	BurnChunk sim.Time
}

// DefaultCosts returns calibrated guest-side costs (see EXPERIMENTS.md
// for the calibration anchors).
func DefaultCosts() Costs {
	return Costs{
		TXPrepBase:    1900 * sim.Nanosecond,
		TXPrepPerByte: 0.12,
		TCPExtra:      500 * sim.Nanosecond,
		RXBase:        1100 * sim.Nanosecond,
		RXPerByte:     0.10,
		RXProtocol:    550 * sim.Nanosecond,
		RXCopyBase:    450 * sim.Nanosecond,
		RXCopyPerByte: 0.12,
		AckRX:         650 * sim.Nanosecond,
		AckTX:         900 * sim.Nanosecond,
		NAPIPoll:      500 * sim.Nanosecond,
		IRQHandler:    800 * sim.Nanosecond,
		BurnChunk:     50 * sim.Microsecond,
	}
}

// TXCost returns the process-context cost of producing one packet of
// the given size; tcp selects the TCP path.
func (c Costs) TXCost(bytes int, tcp bool) sim.Time {
	t := c.TXPrepBase + sim.Time(c.TXPrepPerByte*float64(bytes))
	if tcp {
		t += c.TCPExtra
	}
	return t
}

// RXCost returns the softirq cost of receiving one data packet of the
// given size.
func (c Costs) RXCost(bytes int) sim.Time {
	return c.RXBase + sim.Time(c.RXPerByte*float64(bytes))
}
