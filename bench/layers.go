package main

import (
	"runtime"
	"time"

	"es2/internal/apic"
	"es2/internal/fabric"
	"es2/internal/loadgen"
	"es2/internal/netsim"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/vhost"
	"es2/internal/virtio"
	"es2/internal/vmm"
)

// micro is one layer microbenchmark. setup builds private state (its
// own sim.Engine) and returns the operation loop, which runs n
// operations on that state.
type micro struct {
	// ns and allocs name the ns/op and allocs/op metrics; an empty
	// allocs reports no allocation metric.
	ns, allocs string
	// ops is the operation count of one batch, sized so a batch takes
	// about a millisecond on a 2-core box.
	ops   int
	setup func(seed uint64) func(n int)
}

// micros lists the layer microbenchmarks in event-path order. Their set-up
// follows each package's unit tests.
var micros = []micro{
	{"sim.at_step_ns.d64", "sim.at_step_allocs", 8000, func(seed uint64) func(int) { return atStep(seed, 64) }},
	{"sim.at_step_ns.d16k", "", 4000, func(seed uint64) func(int) { return atStep(seed, 16384) }},
	{"sim.cancel_ns", "sim.cancel_allocs", 8000, cancelStep},
	{"sched.wake_dispatch_ns", "sched.wake_dispatch_allocs", 2000, wakeDispatch},
	{"sched.preempt_ns", "sched.preempt_allocs", 2000, preempt},
	{"vmm.exit_entry_ns", "vmm.exit_entry_allocs", 1000, exitEntry},
	{"vmm.msi_posted_ns", "vmm.msi_posted_allocs", 500, func(seed uint64) func(int) { return injectMSI(seed, true) }},
	{"vmm.msi_emulated_ns", "vmm.msi_emulated_allocs", 500, func(seed uint64) func(int) { return injectMSI(seed, false) }},
	{"virtio.kick_pop_push_ns", "virtio.kick_pop_push_allocs", 8000, kickPopPush},
	{"vhost.tx_turn_ns", "vhost.tx_turn_allocs", 500, txTurn},
	{"netsim.send_deliver_ns", "netsim.send_deliver_allocs", 8000, sendDeliver},
	{"fabric.hop_ns", "fabric.hop_allocs", 8000, fabricHop},
	{"loadgen.interarrival_ns", "loadgen.interarrival_allocs", 20000, interarrival},
}

// microBatches is how many timed batches a microbenchmark's median is
// taken over (one untimed batch runs first).
const microBatches = 21

// microResult is one microbenchmark's measurement.
type microResult struct {
	nsPerOp     float64 // calibrated median over batches
	allocsPerOp float64 // over all timed batches
}

// runMicro times batches of m.ops operations. The median is calibrated
// by the reference bursts run just before and after the batches.
func runMicro(m micro, seed uint64, batches int) microResult {
	op := m.setup(seed)
	op(m.ops)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := slowdown(passBurst)
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		op(m.ops)
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(m.ops)
	}
	after := slowdown(passBurst)
	runtime.ReadMemStats(&ms1)
	return microResult{
		nsPerOp:     median(ns) / ((before + after) / 2),
		allocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(batches*m.ops),
	}
}

// microSink keeps results the compiler could otherwise discard.
var microSink sim.Time

// xorshift is a tiny deterministic delay generator, cheaper than the
// engine's own RNG so the loop times the queue, not the generator.
type xorshift uint64

func (x *xorshift) next(limit uint64) sim.Time {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return sim.Time(1 + uint64(*x)%limit)
}

// atStep schedules one event and fires the earliest, keeping the queue
// at the given depth: Engine.At plus Engine.Step.
func atStep(seed uint64, depth int) func(int) {
	eng := sim.NewEngine(seed)
	fn := func() {}
	x := xorshift(seed | 1)
	for i := 0; i < depth; i++ {
		eng.After(x.next(uint64(2*depth)), fn)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			eng.After(x.next(uint64(2*depth)), fn)
			eng.Step()
		}
	}
}

// cancelStep schedules and cancels one event on a 64-deep queue; the
// cost includes the lazy pop of the cancelled handle.
func cancelStep(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	fn := func() {}
	const far = sim.Time(1) << 60
	for i := 0; i < 64; i++ {
		eng.At(far+sim.Time(i), fn)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			eng.After(sim.Time(1+i%8), fn).Cancel()
			if i%16 == 15 {
				eng.Run(eng.Now() + 8)
			}
		}
		eng.Run(eng.Now() + 8)
	}
}

// chunkSource supplies pending chunks of fixed length, then blocks; a
// negative pending never runs out.
type chunkSource struct {
	pending int
	chunk   sim.Time
}

func (c *chunkSource) NextChunk() sim.Time {
	if c.pending == 0 {
		return 0
	}
	return c.chunk
}
func (c *chunkSource) Ran(sim.Time) {}
func (c *chunkSource) ChunkDone() {
	if c.pending > 0 {
		c.pending--
	}
}

// wakeDispatch wakes a sleeping thread, dispatches it, runs one 1µs
// chunk and lets it block again.
func wakeDispatch(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	s := sched.New(eng, 1, sched.DefaultParams())
	src := &chunkSource{chunk: sim.Microsecond}
	th := s.NewThread("w", 0, 0, src)
	return func(n int) {
		for i := 0; i < n; i++ {
			src.pending = 1
			s.Wake(th)
			eng.RunAll()
		}
	}
}

// preempt runs two always-busy threads on one core with a 10µs slice;
// one operation is one context switch.
func preempt(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	s := sched.New(eng, 1, sched.Params{
		Latency: 20 * sim.Microsecond, MinGranularity: 10 * sim.Microsecond,
	})
	for _, name := range []string{"a", "b"} {
		s.Wake(s.NewThread(name, 0, 0, &chunkSource{pending: -1, chunk: sim.Millisecond}))
	}
	return func(n int) {
		target := s.ContextSwitches + uint64(n)
		for s.ContextSwitches < target && eng.Step() {
		}
	}
}

// newKVM is one core and one 1-vCPU VM with the periodic timer and
// background exits off, as in the vmm unit tests.
func newKVM(seed uint64, usePI bool) (*sim.Engine, *vmm.KVM, *vmm.VM) {
	eng := sim.NewEngine(seed)
	cost := vmm.DefaultCosts()
	cost.TimerTickPeriod = 0
	cost.OtherExitPeriod = 0
	k := vmm.NewKVM(eng, sched.New(eng, 1, sched.DefaultParams()), cost)
	k.UsePI = usePI
	return eng, k, k.NewVM("vm", []int{0})
}

// exitEntry loops 1µs of guest work into an I/O-instruction exit; one
// operation is one exit handled and the guest re-entered.
func exitEntry(seed uint64) func(int) {
	eng, _, vm := newKVM(seed, true)
	v := vm.VCPUs[0]
	exits := 0
	var loop func()
	loop = func() {
		v.EnqueueTask(vmm.NewTask("io", vmm.PrioTask, sim.Microsecond, func() {
			v.BeginExit(vmm.ExitIOInstruction, func() { exits++; loop() })
		}))
	}
	loop()
	return func(n int) {
		for target := exits + n; exits < target && eng.Step(); {
		}
	}
}

// injectMSI delivers one device MSI to a busy vCPU and runs until its
// 1µs guest handler has run, posted or emulated.
func injectMSI(seed uint64, posted bool) func(int) {
	eng, k, vm := newKVM(seed, posted)
	handled := 0
	vec := vm.AllocVector(vmm.ClassDevice, func(*vmm.VCPU) (sim.Time, func()) {
		return sim.Microsecond, func() { handled++ }
	})
	v := vm.VCPUs[0]
	var burn func()
	burn = func() { v.EnqueueTask(vmm.NewTask("burn", vmm.PrioIdle, 50*sim.Microsecond, burn)) }
	burn()
	msg := apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority}
	return func(n int) {
		for i := 0; i < n; i++ {
			k.InjectMSI(vm, msg)
			for target := handled + 1; handled < target && eng.Step(); {
			}
		}
	}
}

// kickPopPush is one descriptor's round trip through a split
// virtqueue: Add, Kick, Pop, PushUsed, CollectUsed.
func kickPopPush(uint64) func(int) {
	q := virtio.New("tx", 256)
	q.OnKick(func() {})
	return func(n int) {
		for i := 0; i < n; i++ {
			q.Add(virtio.Desc{Len: 1024})
			q.Kick()
			d, _ := q.Pop()
			q.PushUsed(d)
			q.CollectUsed(0)
		}
	}
}

// txTurn is one vhost TX handler turn: a kick for four 1KB packets,
// which the worker copies onto a link and completes to the used ring.
func txTurn(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	s := sched.New(eng, 1, sched.DefaultParams())
	link := netsim.NewLink(eng, 40, sim.Microsecond)
	sink := netsim.EndpointFunc(func(*netsim.Packet) {})
	link.Attach(sink, sink)
	txq, rxq := virtio.New("tx", 256), virtio.New("rx", 256)
	io := vhost.NewIOThread("io", s, 0, vhost.DefaultParams())
	if _, err := vhost.NewDevice("dev", io, txq, rxq, link.PortA(), false, 0); err != nil {
		panic(err) // fresh queues and a non-hybrid device cannot be refused
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			for j := 0; j < 4; j++ {
				txq.Add(virtio.Desc{Len: 1024, Payload: &netsim.Packet{Bytes: 1024}})
			}
			txq.Kick()
			eng.RunAll()
			txq.CollectUsed(0)
		}
	}
}

// sendDeliver sends one 1KB frame on a 40G link and fires its delivery.
func sendDeliver(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	link := netsim.NewLink(eng, 40, sim.Microsecond)
	sink := netsim.EndpointFunc(func(*netsim.Packet) {})
	link.Attach(sink, sink)
	pkt := &netsim.Packet{Bytes: 1024}
	return func(n int) {
		for i := 0; i < n; i++ {
			link.PortA().Send(pkt)
			eng.Step()
		}
	}
}

// fabricHop sends one 1KB frame through a two-port switch and fires
// its delivery.
func fabricHop(seed uint64) func(int) {
	eng := sim.NewEngine(seed)
	sw := fabric.New(eng, fabric.DefaultParams())
	sink := netsim.EndpointFunc(func(*netsim.Packet) {})
	src := sw.AddPort("h0", sink)
	sw.AddPort("h1", sink)
	sw.SetRouter(func(from *fabric.Port, _ *netsim.Packet) (int, bool) { return 1 - from.Index(), true })
	pkt := &netsim.Packet{Bytes: 1024}
	return func(n int) {
		for i := 0; i < n; i++ {
			src.Send(pkt)
			eng.Step()
		}
	}
}

// interarrival draws one gap from the web class's Weibull(0.7) train.
func interarrival(seed uint64) func(int) {
	s := loadgen.NewSampler(loadgen.Weibull, 0.7, sim.NewRand(seed))
	return func(n int) {
		for i := 0; i < n; i++ {
			microSink += s.Interarrival(10 * sim.Microsecond)
		}
	}
}
