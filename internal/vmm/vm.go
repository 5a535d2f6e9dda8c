package vmm

import (
	"fmt"

	"es2/internal/apic"
	"es2/internal/metrics"
	"es2/internal/sim"
)

// IRQHandler is a guest interrupt handler registered in the IDT: it
// returns the CPU cost of the handler body and a completion callback
// that runs in guest context just before the EOI.
type IRQHandler func(v *VCPU) (cost sim.Time, fn func())

// VectorClass categorizes guest vectors for redirection validity: only
// device interrupts may be redirected; per-vCPU vectors (timer,
// reschedule IPIs...) must reach exactly their destination or the guest
// would crash (Section V-C).
type VectorClass uint8

const (
	// ClassLocal marks per-vCPU vectors that must never be redirected.
	ClassLocal VectorClass = iota
	// ClassDevice marks external device vectors, eligible for
	// redirection under the lowest-priority delivery mode.
	ClassDevice
)

// TimerVector is the guest local-APIC timer vector (Linux's
// LOCAL_TIMER_VECTOR).
const TimerVector apic.Vector = 0xEF

// VM is one guest virtual machine.
type VM struct {
	Name  string
	Index int
	K     *KVM
	VCPUs []*VCPU

	// handlerIdx maps each vector to its entry in handlers, which holds
	// only the handlers the guest registered, after the nil at entry 0
	// that every vector without one reads. device marks the
	// redirectable device vectors; an unregistered vector reads as
	// ClassLocal.
	handlerIdx [apic.NumVectors]uint8
	handlers   []IRQHandler
	device     apic.Bitmap256
	nextVec    apic.Vector

	// Exits tallies VM exits by reason across all vCPUs.
	Exits *metrics.Breakdown
	// DevIRQDelivered / DevIRQCompleted count device-vector interrupt
	// deliveries and EOIs.
	DevIRQDelivered metrics.Counter
	DevIRQCompleted metrics.Counter
}

// NewVM creates a VM with nvcpus vCPUs pinned to cores[i]. len(cores)
// must equal nvcpus.
func (k *KVM) NewVM(name string, cores []int) *VM {
	vm := &VM{
		Name:    name,
		Index:   len(k.vms),
		K:       k,
		nextVec: 0x31, // Linux external vectors start above 0x30
		Exits:   metrics.NewBreakdown(NumExitReasons),
		// Room for the nil entry, one queue pair's RX and TX vectors
		// and the timer.
		handlers: make([]IRQHandler, 1, 4),
	}
	for i, c := range cores {
		vm.VCPUs = append(vm.VCPUs, newVCPU(vm, i, c))
	}
	k.vms = append(k.vms, vm)
	return vm
}

// NumVCPUs returns the vCPU count.
func (vm *VM) NumVCPUs() int { return len(vm.VCPUs) }

// AllocVector allocates a fresh guest vector of the given class and
// registers its handler, mirroring Linux's strict vector allocation
// that lets ES2 distinguish device interrupts from local ones.
func (vm *VM) AllocVector(class VectorClass, h IRQHandler) apic.Vector {
	vec := vm.nextVec
	if vec >= TimerVector {
		panic("vmm: guest vector space exhausted")
	}
	vm.nextVec++
	vm.RegisterIDT(vec, class, h)
	return vec
}

// RegisterIDT installs a handler for a specific vector (used for the
// timer vector and tests).
func (vm *VM) RegisterIDT(vec apic.Vector, class VectorClass, h IRQHandler) {
	switch i := vm.handlerIdx[vec]; {
	case h == nil:
		vm.handlerIdx[vec] = 0
	case i != 0:
		vm.handlers[i] = h
	case len(vm.handlers) == apic.NumVectors:
		panic("vmm: more IRQ handlers than an index byte addresses")
	default:
		vm.handlerIdx[vec] = uint8(len(vm.handlers))
		vm.handlers = append(vm.handlers, h)
	}
	if class == ClassDevice {
		vm.device.Set(vec)
	} else {
		vm.device.Clear(vec)
	}
}

// handler returns vec's registered handler, or nil.
func (vm *VM) handler(vec apic.Vector) IRQHandler { return vm.handlers[vm.handlerIdx[vec]] }

// IsDeviceVector reports whether vec is a redirectable device vector.
func (vm *VM) IsDeviceVector(vec apic.Vector) bool { return vm.device.Test(vec) }

// Start arms per-vCPU background machinery: guest timer ticks and the
// miscellaneous-exit background. Call once after guest setup.
func (vm *VM) Start() {
	if vm.handler(TimerVector) == nil {
		vm.RegisterIDT(TimerVector, ClassLocal, func(*VCPU) (sim.Time, func()) {
			return 1200 * sim.Nanosecond, nil
		})
	}
	period := vm.K.Cost.TimerTickPeriod
	for i, v := range vm.VCPUs {
		v.startBackgroundExits()
		if period > 0 {
			vm.startTimer(v, period, sim.Time(i)*period/sim.Time(len(vm.VCPUs)))
		}
	}
}

func (vm *VM) startTimer(v *VCPU, period, phase sim.Time) {
	var tick func()
	tick = func() {
		vm.K.DeliverLocal(v, TimerVector)
		vm.K.Eng.After(period, tick)
	}
	vm.K.Eng.After(period+phase, tick)
}

func (vm *VM) noteAccepted(v *VCPU, vec apic.Vector) {
	if vm.IsDeviceVector(vec) {
		vm.DevIRQDelivered.Inc()
	}
	if tl := vm.K.Timeline; tl.Active() {
		tl.Instant(v.track, irqNames[vec], vm.K.Eng.Now())
	}
}

// TIG returns the VM-wide time-in-guest fraction.
func (vm *VM) TIG() float64 {
	var g, h sim.Time
	for _, v := range vm.VCPUs {
		g += v.GuestTime
		h += v.HostTime
	}
	if g+h == 0 {
		return 1
	}
	return float64(g) / float64(g+h)
}

// ResetStats zeroes exit and interrupt statistics (used at the end of
// the measurement warm-up).
func (vm *VM) ResetStats() {
	vm.Exits.Reset()
	vm.DevIRQDelivered.Reset()
	vm.DevIRQCompleted.Reset()
	for _, v := range vm.VCPUs {
		v.ResetStats()
	}
}

// String identifies the VM.
func (vm *VM) String() string { return fmt.Sprintf("VM(%s,%d vCPUs)", vm.Name, len(vm.VCPUs)) }
