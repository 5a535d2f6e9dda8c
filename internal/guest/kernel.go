package guest

import (
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/vmm"
)

// Packet kinds used by the simulated protocols. The external peer
// (workloads package) speaks the same constants.
const (
	KindTCPData = iota + 1
	KindTCPAck
	KindUDP
	KindEcho      // ICMP echo request
	KindEchoReply // ICMP echo reply
	KindSYN       // TCP connection request
	KindSYNACK    // TCP connection accept
	KindRequest   // application request (Memcached/HTTP) riding on TCP
	KindResponse  // application response
)

// FlowHandler is the guest-side protocol endpoint of one flow. RXCost
// is consulted while NAPI accounts the poll batch's CPU time; HandleRX
// performs the protocol action afterwards (in softirq context on vCPU
// v — outbound replies are transmitted from there). HandleRX is the
// packet's terminal consumer: it releases p after its last read, or
// hands p on to an owner that does.
type FlowHandler interface {
	RXCost(p *netsim.Packet) sim.Time
	HandleRX(p *netsim.Packet, v *vmm.VCPU)
}

// BatchHandler is an optional FlowHandler extension: BatchEnd runs once
// after each NAPI poll batch that contained packets for the flow. TCP
// receivers use it to emit one stretch ACK per batch, as GRO-coalesced
// receive paths do.
type BatchHandler interface {
	BatchEnd(v *vmm.VCPU)
}

// Kernel is one VM's guest operating system.
type Kernel struct {
	VM    *vmm.VM
	Costs Costs
	Dev   *NetDev
	// Pool recycles the packets this kernel's flows and applications
	// build; each returns here when its terminal consumer releases it.
	Pool netsim.Pool

	flows      map[int]FlowHandler
	defaultFlo FlowHandler
	rng        *sim.Rand

	// RxDropsNoFlow counts packets that arrived for an unregistered
	// flow (dropped after the stack cost was paid).
	RxDropsNoFlow uint64

	// RetransmitRTO, when positive, enables TCP loss recovery: senders
	// created after it is set arm a go-back-N retransmission timer with
	// this base timeout. Zero (the default) models the paper's lossless
	// back-to-back testbed. Set before workloads are started.
	RetransmitRTO sim.Time
	// TCPRetransmits counts retransmission timeouts across all sender
	// flows of this kernel.
	TCPRetransmits uint64
}

// NewKernel boots a guest kernel on vm with a single virtio-net device
// of the given ring size (256 descriptors, the virtio-net default,
// when ringSize <= 0).
func NewKernel(vm *vmm.VM, costs Costs, ringSize int) *Kernel {
	return NewKernelQueues(vm, costs, ringSize, 1)
}

// NewKernelQueues boots a guest kernel whose virtio-net device has the
// given number of queue pairs (virtio-net multiqueue; queue i is
// affine to vCPU i%N).
func NewKernelQueues(vm *vmm.VM, costs Costs, ringSize, queues int) *Kernel {
	if ringSize <= 0 {
		ringSize = 256
	}
	k := &Kernel{
		VM: vm, Costs: costs,
		flows: make(map[int]FlowHandler),
		rng:   vm.K.Eng.Rand().Fork(),
	}
	k.Dev = newNetDev(k, ringSize, queues)
	return k
}

// JitterCost perturbs a nominal CPU cost by the kernel's cost-noise
// factor (±25%), modeling cache misses, branch behaviour and syscall
// variance. All guest-side task costs flow through this.
func (k *Kernel) JitterCost(c sim.Time) sim.Time { return k.rng.Jitter(c, 0.25) }

// RegisterFlow binds a flow id to its guest-side handler.
func (k *Kernel) RegisterFlow(id int, h FlowHandler) { k.flows[id] = h }

// ReserveFlows makes room for n more flow registrations, so that a
// client about to register many flows sizes the table once instead of
// regrowing it as they arrive.
func (k *Kernel) ReserveFlows(n int) {
	flows := make(map[int]FlowHandler, len(k.flows)+n)
	for id, h := range k.flows {
		flows[id] = h
	}
	k.flows = flows
}

// SetDefaultHandler installs the handler for flows without an explicit
// registration (server applications accepting new connections).
func (k *Kernel) SetDefaultHandler(h FlowHandler) { k.defaultFlo = h }

// lookup returns the handler responsible for p, or nil.
func (k *Kernel) lookup(p *netsim.Packet) FlowHandler {
	if h, ok := k.flows[p.Flow]; ok {
		return h
	}
	return k.defaultFlo
}

// rxCost returns the softirq CPU cost of one incoming packet.
func (k *Kernel) rxCost(p *netsim.Packet) sim.Time {
	if h := k.lookup(p); h != nil {
		return h.RXCost(p)
	}
	return k.Costs.RXCost(p.Bytes)
}

// dispatch routes one received packet to its flow handler, which
// releases it. A packet for an unknown flow is dropped unreleased.
func (k *Kernel) dispatch(p *netsim.Packet, v *vmm.VCPU) {
	if p.Released() {
		panic("guest: released packet reached dispatch")
	}
	if h := k.lookup(p); h != nil {
		h.HandleRX(p, v)
		return
	}
	k.RxDropsNoFlow++
}

// StartBurn launches the lowest-priority CPU-burn filler on vCPU v,
// reproducing the paper's methodology of keeping every vCPU
// always-runnable so that HLT exits disappear and host-level vCPU
// multiplexing is continuously exercised.
//
// The filler starts at a random offset within one scheduling period and
// its chunks are jittered: without this, the perfectly symmetric setup
// would gang-schedule all VMs in lockstep (every core running the same
// VM simultaneously), a degenerate phase alignment that real hosts
// never sustain — boot order, interrupts and daemons decorrelate vCPU
// phases within seconds.
func (k *Kernel) StartBurn(v *vmm.VCPU) {
	var loop func()
	loop = func() {
		v.EnqueueTask(vmm.NewTask("burn", vmm.PrioIdle, k.JitterCost(k.Costs.BurnChunk), loop))
	}
	k.VM.K.Eng.After(k.rng.Duration(24*sim.Millisecond), loop)
}

// StartBurnAll launches the burn filler on every vCPU (the paper's
// "four-threaded lowest-priority CPU burn script").
func (k *Kernel) StartBurnAll() {
	for _, v := range k.VM.VCPUs {
		k.StartBurn(v)
	}
}

// Engine returns the simulation engine (convenience).
func (k *Kernel) Engine() *sim.Engine { return k.VM.K.Eng }
