package guest

import (
	"es2/internal/apic"
	"es2/internal/causal"
	"es2/internal/netsim"
	"es2/internal/sim"
	"es2/internal/virtio"
	"es2/internal/vmm"
)

// QueuePair is one TX/RX virtqueue pair of a (possibly multiqueue)
// virtio-net device, with its own MSI-X vectors, interrupt affinity and
// NAPI context — the virtio-net multiqueue model, where queue i is
// affine to vCPU i so flows spread across vCPUs.
type QueuePair struct {
	Dev   *NetDev
	Index int
	TX    *virtio.Virtqueue
	RX    *virtio.Virtqueue

	// TXVector and RXVector are the queue's MSI-X vectors.
	TXVector apic.Vector
	RXVector apic.Vector
	// Affinity is the guest's interrupt-affinity for this queue (the
	// MSI destination vCPU). ES2's redirection overrides it at
	// kvm_set_msi_irq time.
	Affinity int

	napi      *NAPI
	txWaiters []func()

	// The RX and TX kicks and the two ISRs' completion callbacks are
	// bound once: rxDone holds one per vCPU, indexed by VCPU.ID.
	rxKick, txKick func()
	rxDone         []func()
	txDone         func()

	// ep snapshots the most recent RX interrupt episode for the
	// event-path probe, which applies it to each collected buffer that
	// was already waiting when the interrupt fired (see
	// causal.Probe.Collect).
	ep causal.Episode
}

// NetDev is the guest's virtio-net front-end: one or more queue pairs
// plus the device-level policy flags. It has no default pair: a flow
// transmits, waits and reclaims on the pair PairFor hashes it to.
type NetDev struct {
	Kern  *Kernel
	Pairs []*QueuePair

	// DoorbellNoExit models direct device assignment (SR-IOV,
	// Section VII): the guest rings the VF's doorbell with a plain
	// MMIO write to the assigned BAR, which the IOMMU lets through
	// without a VM exit. Interrupt delivery is unchanged (and still
	// benefits from VT-d PI and redirection).
	DoorbellNoExit bool

	// WatchdogFires counts TX watchdog re-kicks (see StartTxWatchdog).
	WatchdogFires uint64
	// LocalDrops counts packets dropped in the guest because the TX
	// ring was full (UDP semantics: drop, don't block).
	LocalDrops uint64
}

func newNetDev(k *Kernel, ringSize, queues int) *NetDev {
	if queues <= 0 {
		queues = 1
	}
	d := &NetDev{Kern: k}
	for qi := 0; qi < queues; qi++ {
		p := &QueuePair{
			Dev:   d,
			Index: qi,
			TX:    virtio.New("tx", ringSize),
			RX:    virtio.New("rx", ringSize),
			// virtio-net multiqueue affinity: queue i <-> vCPU i.
			Affinity: qi % len(k.VM.VCPUs),
		}
		p.napi = newNAPI(p, 64)
		p.rxKick = func() { p.RX.Kick() }
		p.txKick = func() { p.TX.Kick() }
		for _, v := range k.VM.VCPUs {
			p.rxDone = append(p.rxDone, func() {
				p.RX.SetNoInterrupt(true)
				p.napi.schedule(v)
			})
		}
		p.txDone = p.txComplete

		// Allocate MSI-X vectors and register the ISRs in the guest IDT.
		p.RXVector = k.VM.AllocVector(vmm.ClassDevice, p.rxISR)
		p.TXVector = k.VM.AllocVector(vmm.ClassDevice, p.txISR)

		// Wire the device-side interrupt callbacks to KVM MSI injection.
		pp := p
		p.RX.OnInterrupt(func() {
			k.VM.K.InjectMSI(k.VM, apic.MSIMessage{
				Vector: pp.RXVector, Dest: pp.Affinity, Mode: apic.LowestPriority,
			})
		})
		p.TX.OnInterrupt(func() {
			k.VM.K.InjectMSI(k.VM, apic.MSIMessage{
				Vector: pp.TXVector, Dest: pp.Affinity, Mode: apic.LowestPriority,
			})
		})

		// The guest virtio-net driver normally runs with TX completion
		// interrupts suppressed (buffers are reclaimed opportunistically);
		// the interrupt is enabled only when the ring fills up.
		p.TX.SetNoInterrupt(true)

		// Pre-post the full RX ring.
		p.RX.Fill()
		d.Pairs = append(d.Pairs, p)
	}
	return d
}

// PairFor returns the queue pair a flow hashes to (the driver's
// select-queue function).
func (d *NetDev) PairFor(flow int) *QueuePair {
	return d.Pairs[QueueFor(flow, len(d.Pairs))]
}

// QueueFor returns the index, in [0, queues), of the queue pair that
// flow hashes to. It is the one flow-to-queue rule: PairFor selects the
// pair a flow transmits on with it, and the host's receive-side
// steering must pick the same pair's device with it too.
func QueueFor(flow, queues int) int {
	if queues == 1 {
		return 0 // the common case, without a division
	}
	i := flow % queues
	if i < 0 {
		i += queues
	}
	return i
}

// rxISR is the RX queue's interrupt handler: mask further RX interrupts
// and schedule this queue's NAPI on the vCPU that took the interrupt.
func (p *QueuePair) rxISR(v *vmm.VCPU) (cost sim.Time, fn func()) {
	if p.Dev.Kern.VM.K.Causal != nil {
		// Handler entry: snapshot the delivery episode while the
		// injection stamp is still current, so NAPI can attribute
		// signal/wakeup/delivery time to the buffers this interrupt
		// covers.
		if t0, mech, ok := v.LastInjection(); ok {
			p.ep = causal.Episode{
				Inject: t0, SchedIn: v.LastSchedIn(), Entry: p.Dev.Kern.Engine().Now(),
				Posted: mech == apic.StampPosted, Valid: true,
			}
		}
	}
	return p.Dev.Kern.Costs.IRQHandler, p.rxDone[v.ID]
}

// txISR handles the (rare) TX completion interrupt: reclaim and wake
// blocked senders, then re-suppress.
func (p *QueuePair) txISR(*vmm.VCPU) (cost sim.Time, fn func()) {
	return p.Dev.Kern.Costs.IRQHandler, p.txDone
}

// txComplete is the TX completion interrupt handler's body.
func (p *QueuePair) txComplete() {
	p.TX.SetNoInterrupt(true)
	p.ReclaimTX()
	p.wakeTxWaiters()
}

// ReclaimTX frees completed TX descriptors. The (small) per-buffer cost
// is folded into the caller's task, matching free_old_xmit running
// inside ndo_start_xmit.
func (p *QueuePair) ReclaimTX() int {
	n := p.TX.ReclaimUsed()
	if n > 0 {
		p.wakeTxWaiters()
	}
	return n
}

// WaitTX registers fn to run once when this queue's TX ring has space.
// The device requests a TX completion interrupt to guarantee progress.
func (p *QueuePair) WaitTX(fn func()) {
	p.txWaiters = append(p.txWaiters, fn)
	p.TX.SetNoInterrupt(false)
	// Double-check: completions may already be pending.
	if p.TX.UsedLen() > 0 {
		p.ReclaimTX()
	}
}

func (p *QueuePair) wakeTxWaiters() {
	if len(p.txWaiters) == 0 {
		return
	}
	ws := p.txWaiters
	p.txWaiters = nil
	for _, fn := range ws {
		fn()
	}
}

// NAPI returns the pair's NAPI context.
func (p *QueuePair) NAPI() *NAPI { return p.napi }

// Transmit enqueues p on the flow's TX ring from guest context on vCPU
// v and performs the virtio kick. In notification mode the kick traps
// (one I/O-instruction exit); when the back-end has suppressed
// notifications (actively servicing, ES2 polling mode) or the device is
// directly assigned, the kick is exit-less. It reports false when the
// ring is full (caller should WaitTX or drop).
func (d *NetDev) Transmit(v *vmm.VCPU, pkt *netsim.Packet) bool {
	p := d.PairFor(pkt.Flow)
	p.ReclaimTX()
	if !p.TX.Add(virtio.Desc{Len: pkt.Bytes, Payload: pkt}) {
		p.TX.SetNoInterrupt(false) // need a completion interrupt to make progress
		return false
	}
	exitKick := !(d.DoorbellNoExit || p.TX.KickSuppressed())
	if pr := d.Kern.VM.K.Causal; pr != nil {
		// The doorbell closes the guest-side segment (client stack or
		// server service) and opens the notify span the vhost dequeue
		// will close, remembering whether this kick traps (exit-driven)
		// or is elided (back-end polling / direct doorbell).
		pr.MarkSend(&pkt.Unit, d.Kern.VM.K.Eng.Now(), exitKick)
	}
	if !exitKick {
		p.TX.Kick() // direct doorbell or suppressed: no exit
		return true
	}
	v.BeginExit(vmm.ExitIOInstruction, p.txKick)
	return true
}

// TransmitOrDrop is Transmit with UDP semantics: a full ring drops the
// packet locally (qdisc overflow) instead of blocking. The caller hands
// the packet over either way: Transmit refuses it before anything else
// holds it, so TransmitOrDrop is a dropped packet's terminal consumer
// and releases it to its pool.
func (d *NetDev) TransmitOrDrop(v *vmm.VCPU, p *netsim.Packet) bool {
	if d.Transmit(v, p) {
		return true
	}
	d.LocalDrops++
	p.Release()
	return false
}

// WaitTXFlow registers fn on the queue pair the flow hashes to.
func (d *NetDev) WaitTXFlow(flow int, fn func()) { d.PairFor(flow).WaitTX(fn) }
