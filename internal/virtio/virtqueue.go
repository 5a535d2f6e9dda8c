// Package virtio models the paravirtual I/O transport of the virtio
// standard: split virtqueues shared between a guest front-end driver
// and a host back-end device, with both directions of event
// suppression:
//
//   - the device suppresses guest kicks (VRING_USED_F_NO_NOTIFY /
//     avail_event): this is the mechanism ES2's polling mode uses to
//     "permanently disable the notification mechanism" and eliminate
//     I/O-instruction exits;
//   - the driver suppresses device interrupts (VRING_AVAIL_F_NO_INTERRUPT
//     / used_event): this is what guest NAPI uses to mask interrupts
//     while polling.
//
// The queue carries 16-byte descriptors, as the split ring does: a
// length and the packet the buffer holds. Timing and exits live in the
// guest/vhost/vmm layers that own the two ends.
package virtio

import (
	"fmt"

	"es2/internal/metrics"
	"es2/internal/netsim"
	"es2/internal/sim"
)

// Desc is one descriptor chain posted to a virtqueue — for virtio-net,
// one packet.
type Desc struct {
	// Len is the buffer length in bytes.
	Len int
	// Payload is the packet the buffer holds: nil for a blank receive
	// buffer.
	Payload *netsim.Packet
}

// Virtqueue is one split virtqueue.
type Virtqueue struct {
	name string
	size int

	// avail and used grow with the descriptors they hold, not with the
	// queue size: TX avail rings hold a handful at a time. A pre-posted
	// RX ring holds blank buffers, which carry nothing but their
	// number, so blanks counts them instead of filling avail. A queue
	// holds blanks or filled descriptors, never both at once (see
	// AddBlank), so Pop keeps the posting order. The driver reads used
	// descriptors where they sit (PopUsed, ReclaimUsed).
	avail    sim.Ring[Desc] // posted by the driver, not yet consumed by the device
	blanks   int            // blank buffers posted, not yet consumed
	used     sim.Ring[Desc] // completed by the device, not yet reclaimed by the driver
	inflight int            // popped by the device, not yet pushed used
	batch    []Desc         // CollectUsed's result, reused by its next call; nil unless called

	noNotify    bool // device->driver: suppress guest kicks
	noInterrupt bool // driver->device: suppress device interrupts

	kick      func() // ioeventfd: invoked on allowed guest kicks
	interrupt func() // irqfd: invoked on allowed device signals

	claimed bool // a back-end device owns this queue end

	// DropKick and DropSignal are fault-injection hooks (see
	// internal/faults). When non-nil they are consulted after the
	// notification is counted but before the callback fires; returning
	// true swallows the edge — the cost was paid, the event never
	// arrives. Nil in normal operation.
	DropKick   func() bool
	DropSignal func() bool

	// res is the residency probe (see SetResidencyProbe). Purely
	// observational; nil in normal operation.
	res *residency

	// Statistics.
	Kicks             uint64 // kicks actually delivered (each is a VM exit)
	SuppressedKicks   uint64 // kicks elided by NO_NOTIFY
	Signals           uint64 // interrupts actually raised
	SuppressedSignals uint64 // interrupts elided by NO_INTERRUPT
	Added             uint64 // descriptors posted by the driver
	Popped            uint64 // descriptors consumed by the device
}

// New creates a virtqueue with the given ring size (power of two by
// virtio convention, 256 for virtio-net).
func New(name string, size int) *Virtqueue {
	if size <= 0 {
		panic("virtio: queue size must be positive")
	}
	return &Virtqueue{name: name, size: size}
}

// Name returns the queue's name (e.g. "tx", "rx").
func (q *Virtqueue) Name() string { return q.name }

// Claim marks the queue as owned by a back-end device. Attaching two
// devices to one queue corrupts the avail/used accounting (the second
// Pop/PushUsed stream races the first), so a second Claim is refused;
// callers surface the error through spec validation.
func (q *Virtqueue) Claim() error {
	if q.claimed {
		return fmt.Errorf("virtio: queue %q is already attached to a device", q.name)
	}
	q.claimed = true
	return nil
}

// Size returns the ring capacity.
func (q *Virtqueue) Size() int { return q.size }

// OnKick installs the host-side kick callback (the ioeventfd handler).
func (q *Virtqueue) OnKick(fn func()) { q.kick = fn }

// OnInterrupt installs the guest-side interrupt callback (the irqfd
// that raises the device MSI).
func (q *Virtqueue) OnInterrupt(fn func()) { q.interrupt = fn }

// outstanding is the number of descriptors the driver cannot reuse yet:
// still available, held by the device, or completed but unreclaimed.
func (q *Virtqueue) outstanding() int { return q.AvailLen() + q.inflight + q.used.Len() }

// Full reports whether the ring has no free descriptor.
func (q *Virtqueue) Full() bool { return q.outstanding() >= q.size }

// Free returns the number of descriptors the driver may still post.
func (q *Virtqueue) Free() int { return q.size - q.outstanding() }

// AvailLen returns the number of descriptors awaiting the device,
// blank buffers included.
func (q *Virtqueue) AvailLen() int { return q.avail.Len() + q.blanks }

// UsedLen returns the number of completed descriptors awaiting the
// driver.
func (q *Virtqueue) UsedLen() int { return q.used.Len() }

// --- driver (guest front-end) side ---

// Add posts a descriptor. It reports false when the ring is full (the
// guest must stop its queue and wait for used-buffer reclamation). It
// panics while blank buffers are posted: see AddBlank.
func (q *Virtqueue) Add(d Desc) bool {
	if q.blanks > 0 {
		panic("virtio: Add to a queue holding blank buffers")
	}
	if q.Full() {
		return false
	}
	if q.res != nil {
		q.res.stamps.Push(q.res.now())
	}
	q.avail.Push(d)
	q.Added++
	return true
}

// AddBlank posts up to n blank buffers, as a driver posts the receive
// buffers the device will copy packets into, and returns how many fit.
// A blank buffer is a zero Desc: the queue counts blanks rather than
// storing them, and Pop hands one out as a zero Desc. Blanks and
// filled descriptors must not wait in the avail ring together, since
// the count keeps no order among them: AddBlank panics while filled
// descriptors are posted, and so does a queue with a residency probe,
// whose stamps a blank cannot carry.
func (q *Virtqueue) AddBlank(n int) int {
	if q.avail.Len() > 0 {
		panic("virtio: AddBlank to a queue holding filled descriptors")
	}
	if q.res != nil {
		panic("virtio: AddBlank to a queue with a residency probe")
	}
	n = max(min(n, q.Free()), 0)
	q.blanks += n
	q.Added += uint64(n)
	return n
}

// Fill posts blank buffers until the ring is full, as a driver
// pre-posts its receive ring.
func (q *Virtqueue) Fill() { q.AddBlank(q.Free()) }

// Kick notifies the device of new available descriptors. It reports
// whether a notification was actually delivered: when the device has
// suppressed notifications (NO_NOTIFY — vhost servicing the queue, or
// ES2 polling mode), the kick is elided and costs the guest nothing.
// The caller models the VM exit when true is returned.
func (q *Virtqueue) Kick() bool {
	if q.noNotify {
		q.SuppressedKicks++
		return false
	}
	q.Kicks++
	if q.DropKick != nil && q.DropKick() {
		return true // the doorbell was paid for; the ioeventfd never fired
	}
	if q.kick != nil {
		q.kick()
	}
	return true
}

// ForceKick invokes the kick callback unconditionally, bypassing both
// suppression and fault hooks. This is the recovery path — a watchdog
// or re-poll re-delivering a notification it believes was lost — and
// is not counted as a guest-initiated kick.
func (q *Virtqueue) ForceKick() {
	if q.kick != nil {
		q.kick()
	}
}

// KickSuppressed reports whether guest notifications are currently
// suppressed by the device.
func (q *Virtqueue) KickSuppressed() bool { return q.noNotify }

// PopUsed reclaims the oldest completed descriptor, read where it sits
// in the used ring. It reports false when none is waiting.
func (q *Virtqueue) PopUsed() (Desc, bool) { return q.used.TryPop() }

// ReclaimUsed reclaims every completed descriptor without reading it
// and returns how many it reclaimed, as a TX driver frees the buffers
// the device has sent.
func (q *Virtqueue) ReclaimUsed() int {
	n := q.used.Len()
	for i := 0; i < n; i++ {
		q.used.Discard()
	}
	return n
}

// CollectUsed reclaims up to max completed descriptors (max <= 0 means
// all) for a caller that wants them as a batch. The returned slice is
// owned by the queue and overwritten by the next CollectUsed call, so
// the caller consumes it before collecting again. A queue allocates
// the batch only when CollectUsed is called: the model's drivers read
// the used ring in place with PopUsed and ReclaimUsed.
func (q *Virtqueue) CollectUsed(max int) []Desc {
	q.batch = q.batch[:0]
	for max <= 0 || len(q.batch) < max {
		d, ok := q.PopUsed()
		if !ok {
			break
		}
		q.batch = append(q.batch, d)
	}
	return q.batch
}

// SetNoInterrupt lets the driver suppress (true) or re-enable (false)
// device interrupts for this queue (NAPI mask/unmask).
func (q *Virtqueue) SetNoInterrupt(no bool) { q.noInterrupt = no }

// InterruptSuppressed reports the driver-side suppression flag.
func (q *Virtqueue) InterruptSuppressed() bool { return q.noInterrupt }

// --- device (host back-end) side ---

// Pop consumes the next available descriptor: a zero Desc while blank
// buffers are posted.
func (q *Virtqueue) Pop() (Desc, bool) {
	if q.blanks > 0 {
		q.blanks--
		q.inflight++
		q.Popped++
		return Desc{}, true
	}
	d, ok := q.avail.TryPop()
	if !ok {
		return Desc{}, false
	}
	q.inflight++
	q.Popped++
	if q.res != nil {
		q.res.lat.Observe(q.res.now() - q.res.stamps.Pop())
	}
	return d, true
}

// PushUsed returns a completed descriptor to the driver.
func (q *Virtqueue) PushUsed(d Desc) {
	if q.inflight <= 0 {
		panic("virtio: PushUsed without matching Pop")
	}
	q.inflight--
	q.used.Push(d)
}

// Signal raises the queue's interrupt toward the guest. It reports
// whether the interrupt was actually delivered (false when the driver
// suppressed it).
func (q *Virtqueue) Signal() bool {
	if q.noInterrupt {
		q.SuppressedSignals++
		return false
	}
	q.Signals++
	if q.DropSignal != nil && q.DropSignal() {
		return true // the irqfd write happened; the MSI never arrived
	}
	if q.interrupt != nil {
		q.interrupt()
	}
	return true
}

// CheckInvariants verifies the ring's accounting. Used by the opt-in
// runtime invariant checker.
func (q *Virtqueue) CheckInvariants() error {
	if q.inflight < 0 {
		return fmt.Errorf("vq %s: negative inflight %d", q.name, q.inflight)
	}
	if out := q.outstanding(); out > q.size {
		return fmt.Errorf("vq %s: %d descriptors outstanding exceeds ring size %d", q.name, out, q.size)
	}
	if q.blanks < 0 || (q.blanks > 0 && q.avail.Len() > 0) {
		return fmt.Errorf("vq %s: %d blank buffers posted beside %d filled descriptors", q.name, q.blanks, q.avail.Len())
	}
	if q.Added-q.Popped != uint64(q.AvailLen()) {
		return fmt.Errorf("vq %s: Added-Popped=%d but avail holds %d", q.name, q.Added-q.Popped, q.AvailLen())
	}
	if q.res != nil && q.res.stamps.Len() != q.AvailLen() {
		return fmt.Errorf("vq %s: %d residency stamps for %d posted descriptors", q.name, q.res.stamps.Len(), q.AvailLen())
	}
	return nil
}

// residency is the telemetry residency probe. stamps holds the publish
// instant of each descriptor in the avail ring, in the ring's order: Add
// pushes one and Pop pops one, and a probed queue never holds blank
// buffers, which Pop hands out without an Add's stamp. So the stamp Pop
// reads is always its own descriptor's.
type residency struct {
	lat    *metrics.LogHistogram
	now    func() sim.Time
	stamps sim.Ring[sim.Time]
}

// SetResidencyProbe installs the telemetry residency probe: h receives
// the avail-ring residency (publish → device dequeue) of every
// descriptor, timed by now. The probe's stamps live in a ring of their
// own beside the avail ring, so a queue without the probe stores none.
// Install during deterministic build, before any descriptor is posted:
// a queue whose avail ring holds anything, blank buffers included,
// refuses the probe, since what it holds carries no stamp.
func (q *Virtqueue) SetResidencyProbe(h *metrics.LogHistogram, now func() sim.Time) {
	if h == nil || now == nil {
		panic("virtio: residency probe needs a histogram and a clock")
	}
	if q.AvailLen() > 0 {
		panic("virtio: residency probe on a queue holding posted buffers")
	}
	q.res = &residency{lat: h, now: now}
}

// SetNoNotify lets the device suppress (true) or re-enable (false)
// guest kicks for this queue. vhost sets it while actively servicing
// the queue; ES2's polling mode holds it set across handler turns.
func (q *Virtqueue) SetNoNotify(no bool) { q.noNotify = no }

// String summarizes the queue state.
func (q *Virtqueue) String() string {
	return fmt.Sprintf("vq(%s: avail=%d used=%d free=%d)", q.name, q.AvailLen(), q.used.Len(), q.Free())
}
