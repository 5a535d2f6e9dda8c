package vmm

import (
	"testing"
	"unsafe"

	"es2/internal/apic"
	"es2/internal/metrics"
	"es2/internal/sched"
	"es2/internal/sim"
)

type env struct {
	eng *sim.Engine
	s   *sched.Scheduler
	k   *KVM
}

func newEnv(cores int, usePI bool) *env {
	eng := sim.NewEngine(1)
	s := sched.New(eng, cores, sched.DefaultParams())
	cost := DefaultCosts()
	cost.TimerTickPeriod = 0 // keep unit tests quiet unless enabled
	cost.OtherExitPeriod = 0
	k := NewKVM(eng, s, cost)
	k.UsePI = usePI
	return &env{eng: eng, s: s, k: k}
}

// burn keeps a vCPU always-runnable at idle priority.
func addBurn(v *VCPU) {
	var loop func()
	loop = func() {
		v.EnqueueTask(NewTask("burn", PrioIdle, 50*sim.Microsecond, loop))
	}
	loop()
}

func TestGuestTaskPriorities(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	var order []string
	v.EnqueueTask(NewTask("low", PrioTask, 100*sim.Microsecond, func() { order = append(order, "task") }))
	v.EnqueueTask(NewTask("soft", PrioSoftirq, 50*sim.Microsecond, func() { order = append(order, "softirq") }))
	v.EnqueueTask(NewTask("idle", PrioIdle, 10*sim.Microsecond, func() { order = append(order, "idle") }))
	e.eng.RunAll()
	if len(order) != 3 || order[0] != "softirq" || order[1] != "task" || order[2] != "idle" {
		t.Fatalf("order = %v, want [softirq task idle]", order)
	}
	if v.GuestTime != 160*sim.Microsecond {
		t.Fatalf("GuestTime = %v, want 160us", v.GuestTime)
	}
	if v.HostTime != 0 {
		t.Fatalf("HostTime = %v, want 0", v.HostTime)
	}
}

func TestHigherPrioPreemptsLower(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	var softAt, taskAt sim.Time
	v.EnqueueTask(NewTask("long", PrioTask, sim.Millisecond, func() { taskAt = e.eng.Now() }))
	// 100us in, a softirq is raised: it must preempt the long task.
	e.eng.After(100*sim.Microsecond, func() {
		v.EnqueueTask(NewTask("soft", PrioSoftirq, 10*sim.Microsecond, func() { softAt = e.eng.Now() }))
	})
	e.eng.RunAll()
	if softAt != 110*sim.Microsecond {
		t.Fatalf("softirq done at %v, want 110us", softAt)
	}
	if taskAt != sim.Millisecond+10*sim.Microsecond {
		t.Fatalf("task done at %v, want 1.01ms (resumed after softirq)", taskAt)
	}
}

func TestBeginExitAccounting(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	handled := false
	v.EnqueueTask(NewTask("io", PrioTask, 10*sim.Microsecond, func() {
		v.BeginExit(ExitIOInstruction, func() { handled = true })
	}))
	e.eng.RunAll()
	if !handled {
		t.Fatal("exit onDone never ran")
	}
	if vm.Exits.Count(int(ExitIOInstruction)) != 1 {
		t.Fatal("IOInstruction exit not recorded")
	}
	if v.HostTime != e.k.Cost.IOInstrExit {
		t.Fatalf("HostTime = %v, want %v", v.HostTime, e.k.Cost.IOInstrExit)
	}
	if v.GuestTime != 10*sim.Microsecond {
		t.Fatalf("GuestTime = %v", v.GuestTime)
	}
	wantTIG := float64(10*sim.Microsecond) / float64(10*sim.Microsecond+e.k.Cost.IOInstrExit)
	if got := v.TIG(); got < wantTIG-1e-9 || got > wantTIG+1e-9 {
		t.Fatalf("TIG = %v, want %v", got, wantTIG)
	}
}

// registerCountingIRQ registers a device vector whose handler counts.
func registerCountingIRQ(vm *VM, cost sim.Time, count *int) apic.Vector {
	return vm.AllocVector(ClassDevice, func(*VCPU) (sim.Time, func()) {
		return cost, func() { *count++ }
	})
}

func TestBaselineInjectionToRunningVCPU(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	handled := 0
	vec := registerCountingIRQ(vm, 2*sim.Microsecond, &handled)
	addBurn(v)
	e.eng.After(100*sim.Microsecond, func() {
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority})
	})
	e.eng.Run(sim.Millisecond)
	if handled != 1 {
		t.Fatalf("handled = %d, want 1", handled)
	}
	// Baseline to a running vCPU: exactly one ExternalInterrupt exit
	// (the kick) and one APICAccess exit (the EOI).
	if got := vm.Exits.Count(int(ExitExternalInterrupt)); got != 1 {
		t.Fatalf("ExternalInterrupt exits = %d, want 1", got)
	}
	if got := vm.Exits.Count(int(ExitAPICAccess)); got != 1 {
		t.Fatalf("APICAccess exits = %d, want 1", got)
	}
	if vm.DevIRQDelivered.Value() != 1 || vm.DevIRQCompleted.Value() != 1 {
		t.Fatal("device IRQ counters wrong")
	}
}

func TestPIDeliveryNoExits(t *testing.T) {
	e := newEnv(1, true)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	handled := 0
	vec := registerCountingIRQ(vm, 2*sim.Microsecond, &handled)
	addBurn(v)
	var injectAt, handledAt sim.Time
	e.eng.After(100*sim.Microsecond, func() {
		injectAt = e.eng.Now()
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority})
	})
	e.eng.Run(sim.Millisecond)
	_ = injectAt
	_ = handledAt
	if handled != 1 {
		t.Fatalf("handled = %d, want 1", handled)
	}
	if total := vm.Exits.Total(); total != 0 {
		t.Fatalf("PI delivery caused %d exits, want 0", total)
	}
	if v.PID.Posts != 1 || v.PID.Notifications != 1 {
		t.Fatalf("PID counters: posts=%d notifications=%d", v.PID.Posts, v.PID.Notifications)
	}
}

func TestPIDeliveryLatencyToRunningVCPU(t *testing.T) {
	e := newEnv(1, true)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	var handledAt sim.Time
	vec := vm.AllocVector(ClassDevice, func(*VCPU) (sim.Time, func()) {
		return 1 * sim.Microsecond, func() { handledAt = e.eng.Now() }
	})
	addBurn(v)
	e.eng.After(100*sim.Microsecond, func() {
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
	})
	e.eng.Run(sim.Millisecond)
	want := 100*sim.Microsecond + e.k.Cost.PINotifyLatency + e.k.Cost.IRQEntryExit + 1*sim.Microsecond
	if handledAt != want {
		t.Fatalf("handledAt = %v, want %v", handledAt, want)
	}
}

// offlinePair builds two single-vCPU VMs sharing core 0 with burn
// loads, registers a counting device vector in each, and returns a
// picker that yields the currently offline VM and its vector.
func offlinePair(t *testing.T, e *env, handled *int) func() (*VM, apic.Vector) {
	t.Helper()
	vmA := e.k.NewVM("a", []int{0})
	vmB := e.k.NewVM("b", []int{0})
	addBurn(vmA.VCPUs[0])
	addBurn(vmB.VCPUs[0])
	vecA := registerCountingIRQ(vmA, 2*sim.Microsecond, handled)
	vecB := registerCountingIRQ(vmB, 2*sim.Microsecond, handled)
	return func() (*VM, apic.Vector) {
		if !vmA.VCPUs[0].Online() {
			return vmA, vecA
		}
		if !vmB.VCPUs[0].Online() {
			return vmB, vecB
		}
		t.Fatal("both vCPUs online on one core — impossible")
		return nil, 0
	}
}

func TestBaselineInjectionToDescheduledVCPU(t *testing.T) {
	// Two always-busy vCPUs share one core; inject to the one that is
	// currently descheduled: no ExternalInterrupt exit should occur
	// (injection piggybacks on the natural VM entry), but the EOI exit
	// remains.
	e := newEnv(1, false)
	handled := 0
	pick := offlinePair(t, e, &handled)
	var target *VM
	e.eng.After(sim.Millisecond, func() {
		vm, vec := pick()
		target = vm
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
	})
	e.eng.Run(100 * sim.Millisecond)
	if handled != 1 {
		t.Fatalf("handled = %d, want 1", handled)
	}
	if got := target.Exits.Count(int(ExitExternalInterrupt)); got != 0 {
		t.Fatalf("ExternalInterrupt exits = %d, want 0 for descheduled target", got)
	}
	if got := target.Exits.Count(int(ExitAPICAccess)); got != 1 {
		t.Fatalf("APICAccess exits = %d, want 1", got)
	}
}

func TestPIToDescheduledVCPUWaitsForEntry(t *testing.T) {
	e := newEnv(1, true)
	handled := 0
	pick := offlinePair(t, e, &handled)
	var injectAt sim.Time
	var target *VM
	e.eng.After(sim.Millisecond, func() {
		vm, vec := pick()
		target = vm
		injectAt = e.eng.Now()
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
	})
	var handledAt sim.Time
	// Poll for the handler completion time via a watcher task: record
	// when handled flips.
	var watch func()
	watch = func() {
		if handled > 0 && handledAt == 0 {
			handledAt = e.eng.Now()
		}
		if handledAt == 0 {
			e.eng.After(10*sim.Microsecond, watch)
		}
	}
	e.eng.After(sim.Millisecond, watch)
	e.eng.Run(200 * sim.Millisecond)
	if handledAt == 0 {
		t.Fatal("interrupt never handled")
	}
	delay := handledAt - injectAt
	// The delay must be a scheduling-scale delay (ms), not an IPI-scale
	// one — this is the latency gap ES2's redirection closes.
	if delay < sim.Millisecond {
		t.Fatalf("delay = %v, want >= 1ms (vCPU scheduling delay)", delay)
	}
	if target.Exits.Total() != 0 {
		t.Fatalf("PI path caused %d exits", target.Exits.Total())
	}
}

func TestInterruptCoalescing(t *testing.T) {
	// Two injections of the same vector while the target vCPU is
	// descheduled (another VM holds the core): both latch the same IRR
	// bit and coalesce into a single handler invocation.
	e := newEnv(1, false)
	handled := 0
	pick := offlinePair(t, e, &handled)
	e.eng.After(sim.Millisecond, func() {
		vm, vec := pick()
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
	})
	e.eng.Run(100 * sim.Millisecond)
	if handled != 1 {
		t.Fatalf("handled = %d, want 1 (coalesced)", handled)
	}
}

func TestSleepingVCPUWokenByInterrupt(t *testing.T) {
	for _, usePI := range []bool{false, true} {
		e := newEnv(1, usePI)
		vm := e.k.NewVM("vm", []int{0})
		handled := 0
		vec := registerCountingIRQ(vm, sim.Microsecond, &handled)
		// No burn: vCPU sleeps with no work.
		e.eng.After(10*sim.Microsecond, func() {
			e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0})
		})
		e.eng.RunAll()
		if handled != 1 {
			t.Fatalf("usePI=%t: handled = %d, want 1", usePI, handled)
		}
	}
}

type fixedRouter struct{ target *VCPU }

func (r fixedRouter) Route(vm *VM, msi apic.MSIMessage) *VCPU { return r.target }

func TestRouterInterceptsMSI(t *testing.T) {
	e := newEnv(2, true)
	vm := e.k.NewVM("vm", []int{0, 1})
	handledOn := -1
	vec := vm.AllocVector(ClassDevice, func(v *VCPU) (sim.Time, func()) {
		return sim.Microsecond, func() { handledOn = v.ID }
	})
	addBurn(vm.VCPUs[0])
	addBurn(vm.VCPUs[1])
	e.k.Router = fixedRouter{target: vm.VCPUs[1]}
	e.eng.After(50*sim.Microsecond, func() {
		// Affinity says vCPU 0, router redirects to vCPU 1.
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority})
	})
	e.eng.Run(sim.Millisecond)
	if handledOn != 1 {
		t.Fatalf("handled on vCPU %d, want 1 (redirected)", handledOn)
	}
}

func TestTimerTickDelivery(t *testing.T) {
	e := newEnv(1, false)
	e.k.Cost.TimerTickPeriod = 4 * sim.Millisecond
	vm := e.k.NewVM("vm", []int{0})
	addBurn(vm.VCPUs[0])
	vm.Start()
	vm.ResetStats()
	e.eng.Run(1 * sim.Second)
	ticks := vm.VCPUs[0].IRQAccepted
	if ticks < 240 || ticks > 260 {
		t.Fatalf("timer ticks = %d, want ~250", ticks)
	}
	// Timer vector is ClassLocal: not counted as device IRQ.
	if vm.DevIRQDelivered.Value() != 0 {
		t.Fatal("timer ticks must not count as device IRQs")
	}
	// Baseline timer ticks trigger delivery + completion exits.
	if vm.Exits.Count(int(ExitAPICAccess)) == 0 {
		t.Fatal("baseline timer EOIs should trap")
	}
}

func TestBackgroundOtherExits(t *testing.T) {
	e := newEnv(1, false)
	e.k.Cost.OtherExitPeriod = 500 * sim.Microsecond
	vm := e.k.NewVM("vm", []int{0})
	addBurn(vm.VCPUs[0])
	vm.Start()
	e.eng.Run(1 * sim.Second)
	rate := vm.Exits.Rate(int(ExitOther), sim.Second)
	if rate < 1000 || rate > 3500 {
		t.Fatalf("Other exit rate = %.0f/s, want ~2000", rate)
	}
}

func TestResetStats(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	v.EnqueueTask(NewTask("io", PrioTask, 10*sim.Microsecond, func() {
		v.BeginExit(ExitIOInstruction, nil)
	}))
	e.eng.RunAll()
	if vm.Exits.Total() == 0 {
		t.Fatal("setup: no exits recorded")
	}
	vm.ResetStats()
	if vm.Exits.Total() != 0 || v.GuestTime != 0 || v.HostTime != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestExitReasonStrings(t *testing.T) {
	if ExitIOInstruction.String() != "IOInstruction" {
		t.Fatal("exit name wrong")
	}
	if ExitReason(99).String() == "" {
		t.Fatal("unknown reason should format")
	}
}

func TestAllocVectorClasses(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	dev := vm.AllocVector(ClassDevice, nil)
	loc := vm.AllocVector(ClassLocal, nil)
	if !vm.IsDeviceVector(dev) {
		t.Fatal("device vector misclassified")
	}
	if vm.IsDeviceVector(loc) {
		t.Fatal("local vector misclassified")
	}
	if dev == loc {
		t.Fatal("vectors must be distinct")
	}
}

// RegisterIDT replaces a vector's handler and class in place, a nil
// handler unregisters the vector, and an unregistered vector has no
// handler and reads as local.
func TestRegisterIDTReplaces(t *testing.T) {
	e := newEnv(1, false)
	vm := e.k.NewVM("vm", []int{0})
	costOf := func(vec apic.Vector) sim.Time {
		t.Helper()
		h := vm.handler(vec)
		if h == nil {
			return -1
		}
		c, _ := h(nil)
		return c
	}
	handler := func(c sim.Time) IRQHandler {
		return func(*VCPU) (sim.Time, func()) { return c, nil }
	}
	vec := vm.AllocVector(ClassDevice, handler(1))
	if costOf(vec) != 1 || !vm.IsDeviceVector(vec) {
		t.Fatalf("allocated vector: handler cost %v, device %v", costOf(vec), vm.IsDeviceVector(vec))
	}
	vm.RegisterIDT(vec, ClassLocal, handler(2))
	if costOf(vec) != 2 || vm.IsDeviceVector(vec) || len(vm.handlers) != 2 {
		t.Fatalf("re-registered vector: handler cost %v, device %v, %d handlers held",
			costOf(vec), vm.IsDeviceVector(vec), len(vm.handlers))
	}
	vm.RegisterIDT(vec, ClassDevice, nil)
	if costOf(vec) != -1 || !vm.IsDeviceVector(vec) {
		t.Fatalf("vector registered without a handler: handler cost %v, device %v", costOf(vec), vm.IsDeviceVector(vec))
	}
	if other := vec + 1; vm.handler(other) != nil || vm.IsDeviceVector(other) {
		t.Fatal("an unregistered vector has a handler or reads as a device vector")
	}
}

// A VM's vector tables are a handler index byte and a device bit per
// vector, not a handler and a class per vector: a rack holds a VM per
// guest and builds every one of them at set-up.
func TestVMSize(t *testing.T) {
	if got := unsafe.Sizeof(VM{}); got > 512 {
		t.Errorf("VM is %d bytes, want at most 512", got)
	}
}

// A queued guest task is 40 bytes: its ring index gives its priority,
// so the slot does not repeat it. A rack's vCPU task rings keep the
// depth of their deepest moment, and a word more per slot is 20% more.
func TestTaskSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(taskSlot{}); got > 40 {
		t.Errorf("taskSlot is %d bytes, want at most 40", got)
	}
}

func TestVMStringAndCounts(t *testing.T) {
	e := newEnv(2, false)
	vm := e.k.NewVM("web", []int{0, 1})
	if vm.NumVCPUs() != 2 {
		t.Fatal("NumVCPUs wrong")
	}
	if vm.String() == "" {
		t.Fatal("String empty")
	}
	if len(e.k.VMs()) != 1 {
		t.Fatal("KVM.VMs wrong")
	}
}

func TestHigherClassInterruptNestsOverHandler(t *testing.T) {
	// A device handler (vector ~0x31, class 3) is preempted by the
	// local timer (vector 0xEF, class 14); completions unwind LIFO.
	e := newEnv(1, true)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	var order []string
	dev := vm.AllocVector(ClassDevice, func(*VCPU) (sim.Time, func()) {
		return 100 * sim.Microsecond, func() { order = append(order, "dev-done") }
	})
	vm.RegisterIDT(TimerVector, ClassLocal, func(*VCPU) (sim.Time, func()) {
		return 2 * sim.Microsecond, func() { order = append(order, "timer-done") }
	})
	addBurn(v)
	e.eng.After(10*sim.Microsecond, func() {
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: dev, Dest: 0})
	})
	// Mid-handler, the timer fires.
	e.eng.After(50*sim.Microsecond, func() {
		e.k.DeliverLocal(v, TimerVector)
	})
	e.eng.Run(5 * sim.Millisecond)
	if len(order) != 2 || order[0] != "timer-done" || order[1] != "dev-done" {
		t.Fatalf("order = %v, want [timer-done dev-done] (nested preemption)", order)
	}
	if v.IRQAccepted != 2 || v.IRQCompleted != 2 {
		t.Fatalf("accepted=%d completed=%d", v.IRQAccepted, v.IRQCompleted)
	}
}

func TestSameClassInterruptDefersUntilEOI(t *testing.T) {
	// Two device vectors in the same priority class: the second must
	// wait for the first handler's EOI.
	e := newEnv(1, true)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	var order []string
	mk := func(tag string, cost sim.Time) apic.Vector {
		return vm.AllocVector(ClassDevice, func(*VCPU) (sim.Time, func()) {
			return cost, func() { order = append(order, tag) }
		})
	}
	// Allocate in the same 16-vector class (0x31, 0x32).
	v1 := mk("first", 100*sim.Microsecond)
	v2 := mk("second", 5*sim.Microsecond)
	if v1.Class() != v2.Class() {
		t.Skipf("vectors landed in different classes: %#x %#x", v1, v2)
	}
	addBurn(v)
	e.eng.After(10*sim.Microsecond, func() {
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: v1, Dest: 0})
	})
	e.eng.After(50*sim.Microsecond, func() {
		e.k.InjectMSI(vm, apic.MSIMessage{Vector: v2, Dest: 0})
	})
	e.eng.Run(5 * sim.Millisecond)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second] (same-class deferral)", order)
	}
}

func TestSleepingIdleVCPUConsumesNoCPU(t *testing.T) {
	e := newEnv(1, true)
	vm := e.k.NewVM("vm", []int{0})
	v := vm.VCPUs[0]
	e.eng.Run(100 * sim.Millisecond)
	if v.GuestTime != 0 || v.HostTime != 0 || v.Thread.SumExec() != 0 {
		t.Fatalf("idle vCPU consumed CPU: guest=%v host=%v", v.GuestTime, v.HostTime)
	}
}

func TestVCPUTigAggregation(t *testing.T) {
	e := newEnv(2, false)
	vm := e.k.NewVM("vm", []int{0, 1})
	for _, v := range vm.VCPUs {
		vv := v
		vv.EnqueueTask(NewTask("io", PrioTask, 10*sim.Microsecond, func() {
			vv.BeginExit(ExitIOInstruction, nil)
		}))
	}
	e.eng.RunAll()
	want := float64(20*sim.Microsecond) / float64(20*sim.Microsecond+2*e.k.Cost.IOInstrExit)
	if got := vm.TIG(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("VM TIG = %v, want %v", got, want)
	}
}

// TestExitEntryAllocs pins a guest task's I/O-instruction exit, through
// its handling and back into the guest, at zero allocations: the task
// and the exit interval are held by value. The test binds its own
// callbacks once.
func TestExitEntryAllocs(t *testing.T) {
	e := newEnv(1, true)
	v := e.k.NewVM("vm", []int{0}).VCPUs[0]
	exits := 0
	var io, handled func()
	io = func() { v.BeginExit(ExitIOInstruction, handled) }
	handled = func() {
		exits++
		v.EnqueueTask(NewTask("io", PrioTask, sim.Microsecond, io))
	}
	v.EnqueueTask(NewTask("io", PrioTask, sim.Microsecond, io))
	got := testing.AllocsPerRun(1000, func() {
		for target := exits + 1; exits < target && e.eng.Step(); {
		}
	})
	if got != 0 {
		t.Errorf("exit and re-entry: %v allocs/op, want 0", got)
	}
	if exits != 1001 {
		t.Fatalf("exits = %d, want 1001", exits)
	}
}

// TestMSIAllocs pins a device MSI to a busy vCPU, through the IDT
// handler to its EOI, at zero allocations on both delivery paths: the
// notification or kick IPI rides a delay line and the handler task
// carries its EOI as a flag.
func TestMSIAllocs(t *testing.T) {
	for _, posted := range []bool{true, false} {
		e := newEnv(1, posted)
		vm := e.k.NewVM("vm", []int{0})
		v := vm.VCPUs[0]
		handled := 0
		done := func() { handled++ }
		vec := vm.AllocVector(ClassDevice, func(*VCPU) (sim.Time, func()) { return sim.Microsecond, done })
		addBurn(v)
		msg := apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority}
		got := testing.AllocsPerRun(500, func() {
			e.k.InjectMSI(vm, msg)
			// The burner never lets the queue drain: bound the steps.
			for i, target := 0, v.IRQCompleted+1; i < 1000 && v.IRQCompleted < target; i++ {
				e.eng.Step()
			}
		})
		if got != 0 {
			t.Errorf("posted=%t: MSI to EOI: %v allocs/op, want 0", posted, got)
		}
		if handled != 501 || v.IRQCompleted != 501 {
			t.Fatalf("posted=%t: handled %d, EOIs %d, want 501", posted, handled, v.IRQCompleted)
		}
	}
}

// A vCPU allocates its per-vector injection stamps only once an
// observer that reads them is on: a run with timer ticks, background
// exits and device MSIs on both delivery paths leaves every vCPU
// without stamps, and the same run with the IRQ-latency histograms
// stamps every vCPU that took an interrupt.
func TestStampsOnlyWithObservers(t *testing.T) {
	for _, posted := range []bool{true, false} {
		for _, observed := range []bool{false, true} {
			e := newEnv(2, posted)
			e.k.Cost.TimerTickPeriod = sim.Millisecond
			e.k.Cost.OtherExitPeriod = 500 * sim.Microsecond
			if observed {
				e.k.IRQLatPosted = metrics.NewLogHistogram()
				e.k.IRQLatEmulated = metrics.NewLogHistogram()
			}
			var vms []*VM
			for i := 0; i < 2; i++ {
				vm := e.k.NewVM("vm", []int{0, 1})
				handled := 0
				vec := registerCountingIRQ(vm, sim.Microsecond, &handled)
				for _, v := range vm.VCPUs {
					addBurn(v)
				}
				vm.Start()
				var inject func()
				inject = func() {
					e.k.InjectMSI(vm, apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority})
					e.eng.After(300*sim.Microsecond, inject)
				}
				inject()
				vms = append(vms, vm)
			}
			e.eng.Run(20 * sim.Millisecond)
			for _, vm := range vms {
				for i, v := range vm.VCPUs {
					if v.IRQAccepted == 0 {
						t.Fatalf("posted=%t observed=%t: vCPU %d accepted no interrupt", posted, observed, i)
					}
					if got := v.irqStamps != nil; got != observed {
						t.Errorf("posted=%t observed=%t: vCPU %d has stamps: %t", posted, observed, i, got)
					}
				}
			}
			if observed && e.k.IRQLatPosted.Count()+e.k.IRQLatEmulated.Count() == 0 {
				t.Errorf("posted=%t: no delivery latency observed", posted)
			}
		}
	}
}
