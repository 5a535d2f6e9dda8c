package core

import (
	"testing"

	"es2/internal/apic"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/vmm"
)

func newTestKVM(cores int, usePI bool) (*sim.Engine, *vmm.KVM) {
	eng := sim.NewEngine(1)
	s := sched.New(eng, cores, sched.DefaultParams())
	cost := vmm.DefaultCosts()
	cost.TimerTickPeriod = 0
	cost.OtherExitPeriod = 0
	k := vmm.NewKVM(eng, s, cost)
	k.UsePI = usePI
	return eng, k
}

func addBurn(v *vmm.VCPU) {
	var loop func()
	loop = func() {
		v.EnqueueTask(vmm.NewTask("burn", vmm.PrioIdle, 50*sim.Microsecond, loop))
	}
	loop()
}

func TestConfigNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Baseline(), "Baseline"},
		{PIOnly(), "PI"},
		{PIH(4), "PI+H"},
		{Full(4), "PI+H+R"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
	if PIH(8).String() != "PI+H(quota=8)" {
		t.Fatalf("String() = %q", PIH(8).String())
	}
	if Baseline().String() != "Baseline" {
		t.Fatalf("String() = %q", Baseline().String())
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyLeastLoaded: "least-loaded",
		PolicyRoundRobin:  "round-robin",
		PolicyRandom:      "random",
		PolicyOfflineTail: "offline-tail",
	} {
		if p.String() != want {
			t.Errorf("Policy %d = %q, want %q", p, p.String(), want)
		}
	}
}

func TestSchedWatcherPartitionInvariant(t *testing.T) {
	eng, k := newTestKVM(2, true)
	// Two 2-vCPU VMs sharing 2 cores → constant churn.
	w := NewSchedWatcher()
	vms := []*vmm.VM{
		k.NewVM("a", []int{0, 1}),
		k.NewVM("b", []int{0, 1}),
	}
	for _, vm := range vms {
		w.Attach(vm)
		for _, v := range vm.VCPUs {
			addBurn(v)
		}
	}
	// Check the invariant at many points during the run.
	violations := 0
	var check func()
	check = func() {
		for _, vm := range vms {
			on := w.AppendOnline(nil, vm)
			off := w.AppendOffline(nil, vm)
			if len(on)+len(off) != len(vm.VCPUs) {
				violations++
			}
			seen := map[*vmm.VCPU]bool{}
			for _, v := range append(on, off...) {
				if seen[v] {
					violations++
				}
				seen[v] = true
			}
			for _, v := range on {
				if !v.Online() {
					violations++
				}
			}
			for _, v := range off {
				if v.Online() {
					violations++
				}
			}
		}
		if eng.Now() < 2*sim.Second {
			eng.After(777*sim.Microsecond, check)
		}
	}
	eng.After(sim.Millisecond, check)
	eng.Run(2 * sim.Second)
	if violations != 0 {
		t.Fatalf("%d partition violations", violations)
	}
	if w.Transitions == 0 {
		t.Fatal("no scheduling transitions observed")
	}
}

func TestSchedWatcherOfflineOrder(t *testing.T) {
	eng, k := newTestKVM(1, true)
	w := NewSchedWatcher()
	// Three single-vCPU VMs on one core: round-robin scheduling, so the
	// offline head must be the vCPU that has been waiting longest.
	var all []*vmm.VCPU
	vms := []*vmm.VM{}
	for _, n := range []string{"a", "b", "c"} {
		vm := k.NewVM(n, []int{0})
		w.Attach(vm)
		addBurn(vm.VCPUs[0])
		all = append(all, vm.VCPUs[0])
		vms = append(vms, vm)
	}
	eng.Run(500 * sim.Millisecond)
	// Exactly one of the three runs; per-VM lists each hold one vCPU.
	online := 0
	for _, vm := range vms {
		online += len(w.AppendOnline(nil, vm))
	}
	if online != 1 {
		t.Fatalf("online across VMs = %d, want 1", online)
	}
	_ = all
}

func TestRedirectorFilters(t *testing.T) {
	_, k := newTestKVM(2, true)
	vm := k.NewVM("vm", []int{0, 1})
	w := NewSchedWatcher()
	w.Attach(vm)
	r := NewRedirector(w, PolicyLeastLoaded, sim.NewRand(1))

	dev := vm.AllocVector(vmm.ClassDevice, nil)
	loc := vm.AllocVector(vmm.ClassLocal, nil)

	if got := r.Route(vm, apic.MSIMessage{Vector: dev, Dest: 0, Mode: apic.Fixed}); got != nil {
		t.Fatal("fixed delivery mode must not be redirected")
	}
	if got := r.Route(vm, apic.MSIMessage{Vector: loc, Dest: 0, Mode: apic.LowestPriority}); got != nil {
		t.Fatal("local vector must not be redirected")
	}
	if r.Filtered != 2 {
		t.Fatalf("Filtered = %d, want 2", r.Filtered)
	}
}

func TestRedirectorPicksLeastLoadedOnline(t *testing.T) {
	eng, k := newTestKVM(4, true)
	vm := k.NewVM("vm", []int{0, 1, 2, 3})
	w := NewSchedWatcher()
	w.Attach(vm)
	r := NewRedirector(w, PolicyLeastLoaded, sim.NewRand(1))
	dev := vm.AllocVector(vmm.ClassDevice, func(*vmm.VCPU) (sim.Time, func()) {
		return sim.Microsecond, nil
	})
	for _, v := range vm.VCPUs {
		addBurn(v)
	}
	eng.Run(sim.Millisecond) // all four online on their own cores

	// Bias the load counters.
	vm.VCPUs[0].IRQAccepted = 10
	vm.VCPUs[1].IRQAccepted = 3
	vm.VCPUs[2].IRQAccepted = 7
	vm.VCPUs[3].IRQAccepted = 5

	msi := apic.MSIMessage{Vector: dev, Dest: 0, Mode: apic.LowestPriority}
	got := r.Route(vm, msi)
	if got != vm.VCPUs[1] {
		t.Fatalf("Route picked vCPU %d, want 1 (least loaded)", got.ID)
	}
	if r.Redirected != 1 {
		t.Fatalf("Redirected = %d, want 1", r.Redirected)
	}
	// Sticky: subsequent interrupts keep the same target while online,
	// even though its counter grows past others.
	vm.VCPUs[1].IRQAccepted = 100
	if got := r.Route(vm, msi); got != vm.VCPUs[1] {
		t.Fatal("sticky target abandoned while still online")
	}
}

func TestRedirectorOfflinePrediction(t *testing.T) {
	_, k := newTestKVM(1, true)
	vm := k.NewVM("vm", []int{0, 0, 0, 0})
	w := NewSchedWatcher()
	w.Attach(vm)
	r := NewRedirector(w, PolicyLeastLoaded, sim.NewRand(1))
	dev := vm.AllocVector(vmm.ClassDevice, nil)

	// No vCPU has ever run: all offline in index order → head is vCPU 0.
	got := r.Route(vm, apic.MSIMessage{Vector: dev, Dest: 2, Mode: apic.LowestPriority})
	if got != vm.VCPUs[0] {
		t.Fatalf("offline prediction picked vCPU %d, want 0 (head)", got.ID)
	}
	if r.OfflinePredicts != 1 {
		t.Fatal("OfflinePredicts not counted")
	}

	// Tail policy picks the most recently descheduled instead.
	rt := NewRedirector(w, PolicyOfflineTail, sim.NewRand(1))
	if got := rt.Route(vm, apic.MSIMessage{Vector: dev, Dest: 2, Mode: apic.LowestPriority}); got != vm.VCPUs[3] {
		t.Fatalf("offline-tail picked vCPU %d, want 3", got.ID)
	}
}

func TestRedirectorRoundRobinAndRandom(t *testing.T) {
	eng, k := newTestKVM(4, true)
	vm := k.NewVM("vm", []int{0, 1, 2, 3})
	w := NewSchedWatcher()
	w.Attach(vm)
	dev := vm.AllocVector(vmm.ClassDevice, nil)
	for _, v := range vm.VCPUs {
		addBurn(v)
	}
	eng.Run(sim.Millisecond)
	msi := apic.MSIMessage{Vector: dev, Dest: 0, Mode: apic.LowestPriority}

	rr := NewRedirector(w, PolicyRoundRobin, sim.NewRand(1))
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		v := rr.Route(vm, msi)
		// Round-robin is intentionally non-sticky across the rotation:
		// drop stickiness by simulating a deschedule of the pick.
		delete(rr.sticky, vm)
		seen[v.ID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("round-robin covered %d vCPUs, want 4", len(seen))
	}

	rd := NewRedirector(w, PolicyRandom, sim.NewRand(7))
	if rd.Route(vm, msi) == nil {
		t.Fatal("random policy returned nil with online vCPUs")
	}
}

func TestInstallWiresRouter(t *testing.T) {
	_, k := newTestKVM(2, false)
	e := Install(k, Full(8))
	if !k.UsePI {
		t.Fatal("Install(Full) must enable PI")
	}
	if k.Router == nil {
		t.Fatal("Install(Full) must install the redirector")
	}
	vm := k.NewVM("vm", []int{0, 1})
	e.AttachVM(vm)
	if got := len(e.Watcher.AppendOffline(nil, vm)); got != 2 {
		t.Fatalf("attached VM should start fully offline, got %d", got)
	}

	_, k2 := newTestKVM(1, true)
	e2 := Install(k2, Baseline())
	if k2.UsePI || k2.Router != nil {
		t.Fatal("Install(Baseline) must disable PI and not install a router")
	}
	e2.AttachVM(k2.NewVM("x", []int{0})) // must not panic with nil watcher
}

func TestEndToEndRedirectionReducesLatency(t *testing.T) {
	// VM A has vCPU 0 sharing core 0 with VM B's vCPU, and vCPU 1
	// alone on core 1 (always online). Interrupts target vCPU 0 by
	// affinity. With redirection, delivery latency should be bounded by
	// the online-vCPU path rather than vCPU 0's scheduling delay.
	run := func(redirect bool) sim.Time {
		eng, k := newTestKVM(2, true)
		var e *ES2
		if redirect {
			e = Install(k, Full(8))
		} else {
			e = Install(k, PIOnly())
		}
		vmA := k.NewVM("a", []int{0, 1})
		vmB := k.NewVM("b", []int{0})
		e.AttachVM(vmA)
		e.AttachVM(vmB)
		var handledAt sim.Time
		vec := vmA.AllocVector(vmm.ClassDevice, func(*vmm.VCPU) (sim.Time, func()) {
			return sim.Microsecond, func() { handledAt = eng.Now() }
		})
		for _, vm := range []*vmm.VM{vmA, vmB} {
			for _, v := range vm.VCPUs {
				addBurn(v)
			}
		}
		var injectAt sim.Time
		// Find a moment when vmA's vCPU 0 is offline but some vmA vCPU
		// is online, then inject.
		var tryInject func()
		tryInject = func() {
			if !vmA.VCPUs[0].Online() && vmA.VCPUs[1].Online() {
				injectAt = eng.Now()
				k.InjectMSI(vmA, apic.MSIMessage{Vector: vec, Dest: 0, Mode: apic.LowestPriority})
				return
			}
			eng.After(100*sim.Microsecond, tryInject)
		}
		eng.After(5*sim.Millisecond, tryInject)
		eng.Run(400 * sim.Millisecond)
		if handledAt == 0 {
			t.Fatalf("redirect=%t: interrupt never handled", redirect)
		}
		return handledAt - injectAt
	}
	base := run(false)
	redir := run(true)
	if redir >= base {
		t.Fatalf("redirection did not help: base=%v redirected=%v", base, redir)
	}
	if redir > 100*sim.Microsecond {
		t.Fatalf("redirected delivery took %v, want online-path latency (<100us)", redir)
	}
}

func TestWatcherListsSurviveHeavyChurn(t *testing.T) {
	// Long-running churn across many VMs: after the run, online lists
	// must exactly reflect thread states and offline ordering must be
	// by descheduling time.
	eng, k := newTestKVM(3, true)
	w := NewSchedWatcher()
	var vms []*vmm.VM
	for i := 0; i < 4; i++ {
		vm := k.NewVM("vm", []int{0, 1, 2})
		w.Attach(vm)
		for _, v := range vm.VCPUs {
			addBurn(v)
		}
		vms = append(vms, vm)
	}
	eng.Run(3 * sim.Second)
	for _, vm := range vms {
		for _, v := range w.AppendOnline(nil, vm) {
			if !v.Online() {
				t.Fatal("stale online entry")
			}
		}
		off := w.AppendOffline(nil, vm)
		for _, v := range off {
			if v.Online() {
				t.Fatal("stale offline entry")
			}
		}
	}
}

func TestRedirectorNoVCPUsReturnsNil(t *testing.T) {
	_, k := newTestKVM(1, true)
	w := NewSchedWatcher()
	r := NewRedirector(w, PolicyLeastLoaded, sim.NewRand(1))
	vm := k.NewVM("vm", []int{0})
	dev := vm.AllocVector(vmm.ClassDevice, nil)
	// VM never attached to the watcher: no lists → keep affinity.
	if got := r.Route(vm, apic.MSIMessage{Vector: dev, Dest: 0, Mode: apic.LowestPriority}); got != nil {
		t.Fatal("unattached VM should fall back to affinity")
	}
}

// TestRouteAllocs pins a non-sticky route with posted interrupts on at
// zero allocations: against an online list with one PI-degraded vCPU,
// and when every vCPU is offline.
func TestRouteAllocs(t *testing.T) {
	eng, k := newTestKVM(2, true)
	w := NewSchedWatcher()
	busy := k.NewVM("busy", []int{0, 1, 0, 1})
	idle := k.NewVM("idle", []int{0, 1})
	w.Attach(busy)
	w.Attach(idle)
	for _, v := range busy.VCPUs {
		addBurn(v)
	}
	eng.Run(10 * sim.Millisecond)
	online := w.AppendOnline(nil, busy)
	if len(online) != 2 {
		t.Fatalf("%d busy vCPUs online on two cores, want 2", len(online))
	}
	online[0].SetPIAvailable(false)

	r := NewRedirector(w, PolicyLeastLoaded, sim.NewRand(1))
	for _, vm := range []*vmm.VM{busy, idle} {
		msi := apic.MSIMessage{Vector: vm.AllocVector(vmm.ClassDevice, nil), Dest: 0, Mode: apic.LowestPriority}
		route := func() {
			delete(r.sticky, vm) // every call takes the non-sticky path
			if r.Route(vm, msi) == nil {
				t.Fatalf("%s: no target", vm.Name)
			}
		}
		route() // grow the scratch lists
		if got := testing.AllocsPerRun(100, route); got != 0 {
			t.Errorf("%s: Route = %v allocs/op, want 0", vm.Name, got)
		}
	}
	if r.PIDegraded == 0 || r.OfflinePredicts == 0 {
		t.Fatalf("PIDegraded = %d, OfflinePredicts = %d: both paths must be taken", r.PIDegraded, r.OfflinePredicts)
	}
}
