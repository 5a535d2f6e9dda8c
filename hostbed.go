package es2

import (
	"fmt"
	"time"

	"es2/internal/causal"
	"es2/internal/core"
	"es2/internal/faults"
	"es2/internal/guest"
	"es2/internal/netsim"
	"es2/internal/profile"
	"es2/internal/sched"
	"es2/internal/sim"
	"es2/internal/trace"
	"es2/internal/vhost"
	"es2/internal/vmm"
	"es2/internal/workloads"
)

// Recovery-mechanism timing. These mirror the real stack's orders of
// magnitude: the netdev TX watchdog polls at millisecond scale, vhost
// re-checks queue state far more often, and the TCP minimum RTO is
// tens of milliseconds (scaled down to the simulator's microsecond
// RTTs so recovery happens within a measurement window).
const (
	retransmitRTO   = 10 * sim.Millisecond
	txWatchdogTick  = sim.Millisecond
	vhostRePollTick = 20 * sim.Microsecond
	checkerTick     = 250 * sim.Microsecond
)

// hostSpec is what a hostBed is built from: the event-path
// configuration, the machine's shape and the per-host observers.
type hostSpec struct {
	cfg   Config
	costs vmm.CostModel

	vcpus, vmCores, vhostCores, queues int

	direct        bool
	coalesceCount int
	coalesceTimer sim.Time
	sidecore      bool

	timeline   *trace.Timeline // nil unless the run records one
	cpuProfile bool
	// probe is the host's event-path probe: nil unless the run keeps
	// path spectra or tracks critical paths.
	probe *causal.Probe
}

// hostBed is one simulated machine: its cores and CFS scheduler, KVM
// with ES2 installed, and the VMs with their guest kernels, vhost I/O
// threads and devices. It is the only place a host is built. Run
// attaches one hostBed to back-to-back links and external peers;
// RunCluster attaches one per fabric port. The network behind the NIC,
// the workloads and how a Result aggregates VMs stay with the caller.
type hostBed struct {
	hs hostSpec
	// name prefixes VM and device names: "" for the single host under
	// test ("vm0", "vhost-0.0"), "hN" in a rack ("h2/vm0",
	// "vhost-h2.0.0"). The names surface in profiles, timelines and
	// invariant names.
	name string

	sch      *sched.Scheduler
	k        *vmm.KVM
	es       *core.ES2
	vms      []*vmm.VM
	kerns    []*guest.Kernel
	devs     []*vhost.Device // all devices; devsByVM groups them
	devsByVM [][]*vhost.Device
	ios      []*vhost.IOThread

	// peers are the external endpoints of a single-host run's links
	// (none in a rack). Their TCP retransmissions count as this host's
	// recovery activity.
	peers []*workloads.Peer

	prof *profile.Profiler // nil unless hs.cpuProfile
	inj  *faults.Injector  // nil unless faults are injected

	// Warm-up-end baselines.
	vhostBusy0 sim.Time
	redir0     redirectCounts
	rec0       recoveryCounts
}

// newHostBed creates the host's scheduler, KVM and ES2 installation,
// each forking the engine RNG in that order, and attaches its timeline
// and profiler. Both are attached before any VM so tracks and profile
// contexts register in deterministic build order.
func newHostBed(eng *sim.Engine, name string, hs hostSpec) *hostBed {
	h := &hostBed{hs: hs, name: name}
	h.sch = sched.New(eng, hs.vmCores+hs.vhostCores, sched.DefaultParams())
	h.k = vmm.NewKVM(eng, h.sch, hs.costs)
	h.k.Causal = hs.probe
	h.es = core.Install(h.k, hs.cfg)
	h.sch.SetTimeline(hs.timeline)
	h.k.Timeline = hs.timeline
	if hs.cpuProfile {
		h.prof = profile.New(hs.vmCores + hs.vhostCores)
		h.k.Prof = h.prof
	}
	return h
}

// addVM builds and starts VM i: its vCPUs, guest kernel, and one vhost
// I/O thread and device per queue pair, all transmitting through out.
// It returns the VM's devices, in queue order, for the caller's
// receive-side steering.
func (h *hostBed) addVM(i int, out netsim.Sender) ([]*vhost.Device, error) {
	hs := h.hs
	cores := make([]int, hs.vcpus)
	for j := range cores {
		cores[j] = (i + j) % hs.vmCores
	}
	vmName, devPrefix := fmt.Sprintf("vm%d", i), fmt.Sprintf("vhost-%d", i)
	if h.name != "" {
		vmName, devPrefix = h.name+"/"+vmName, fmt.Sprintf("vhost-%s.%d", h.name, i)
	}
	vm := h.k.NewVM(vmName, cores)
	// 1024 descriptors models the effective egress capacity of the
	// virtio ring plus the qdisc in front of it: a sender blocks only
	// when both are exhausted, as in a real guest.
	kern := guest.NewKernelQueues(vm, guest.DefaultCosts(), 1024, hs.queues)
	kern.Dev.DoorbellNoExit = hs.direct
	kern.StartBurnAll()
	h.es.AttachVM(vm)

	// Under direct assignment the back-end stands in for the VF's DMA
	// engine; the hybrid kick-polling machinery is meaningless there
	// (there are no kick exits to eliminate).
	hybrid := hs.cfg.Hybrid && !hs.direct
	var devs []*vhost.Device
	for qi, pair := range kern.Dev.Pairs {
		name := fmt.Sprintf("%s.%d", devPrefix, qi)
		io := vhost.NewIOThread(name, h.sch, hs.vmCores+((i+qi)%hs.vhostCores), vhost.DefaultParams())
		io.SetTimeline(hs.timeline)
		if h.prof != nil {
			io.EnableProfiling(h.prof)
		}
		dev, err := vhost.NewDevice(name, io, pair.TX, pair.RX, out, hybrid, hs.cfg.Quota)
		if err != nil {
			return nil, err
		}
		dev.Causal = hs.probe
		dev.CoalesceCount = hs.coalesceCount
		dev.CoalesceTimer = hs.coalesceTimer
		if hs.sidecore {
			dev.EnableSidecore()
		}
		devs = append(devs, dev)
		h.devs = append(h.devs, dev)
		h.ios = append(h.ios, io)
	}
	vm.Start()
	h.vms = append(h.vms, vm)
	h.kerns = append(h.kerns, kern)
	h.devsByVM = append(h.devsByVM, devs)
	return devs, nil
}

// attachInjector hands inj every virtqueue, I/O thread and vCPU of the
// host, creates its preemption-storm burners on stormCores (default:
// every VM core, leaving the vhost cores clean, like a noisy neighbor
// packed onto the guest's socket) and starts it. The caller forks inj
// from the engine RNG, because where that fork falls in build order is
// part of the replay contract, and attaches the host's wire.
func (h *hostBed) attachInjector(inj *faults.Injector, stormCores []int) {
	h.inj = inj
	for _, d := range h.devs {
		inj.AttachQueue(d.TXQ)
		inj.AttachQueue(d.RXQ)
	}
	for _, io := range h.ios {
		inj.AttachIOThread(io)
	}
	for _, vm := range h.vms {
		for _, v := range vm.VCPUs {
			inj.AttachVCPU(v)
		}
	}
	cores := stormCores
	if len(cores) == 0 {
		for c := 0; c < h.hs.vmCores; c++ {
			cores = append(cores, c)
		}
	}
	inj.SetupStorms(h.sch, cores)
	if h.prof != nil {
		inj.EnableProfiling(h.prof)
	}
	inj.Start()
}

// armRecovery arms the recovery mechanisms the real stack has, each in
// the layer that owns it: guest netdev TX watchdogs, guest and peer TCP
// retransmission, and vhost handler re-polling. Called before workloads
// start so TCP senders pick up the RTO at creation.
func (h *hostBed) armRecovery() {
	for _, kern := range h.kerns {
		kern.RetransmitRTO = retransmitRTO
		kern.Dev.StartTxWatchdog(txWatchdogTick)
	}
	for _, pe := range h.peers {
		pe.RetransmitRTO = retransmitRTO
	}
	for _, d := range h.devs {
		d.StartRePoll(vhostRePollTick)
	}
}

// registerInvariants wires every checkable structure of the host into
// the invariant checker: virtqueue accounting on both rings of every
// device, APIC ISR/IRR discipline on every vCPU, and the ES2
// scheduler-watcher's online/offline list consistency.
func (h *hostBed) registerInvariants(chk *faults.Checker) {
	for _, d := range h.devs {
		chk.Add("virtqueue/"+d.Name+"/tx", d.TXQ.CheckInvariants)
		chk.Add("virtqueue/"+d.Name+"/rx", d.RXQ.CheckInvariants)
	}
	for _, vm := range h.vms {
		for _, v := range vm.VCPUs {
			chk.Add(fmt.Sprintf("apic/%s/vcpu%d", vm.Name, v.ID), v.VAPIC.CheckInvariants)
		}
		if w := h.es.Watcher; w != nil {
			chk.Add("schedwatcher/"+vm.Name, func() error {
				return w.CheckConsistency(vm)
			})
		}
	}
}

// recoveryCounts tallies recovery-mechanism activations.
type recoveryCounts struct {
	retransmits, watchdogFires, rePolls, piFallbacks uint64
}

func (c recoveryCounts) plus(o recoveryCounts) recoveryCounts {
	return recoveryCounts{
		c.retransmits + o.retransmits, c.watchdogFires + o.watchdogFires,
		c.rePolls + o.rePolls, c.piFallbacks + o.piFallbacks,
	}
}

func (c recoveryCounts) minus(o recoveryCounts) recoveryCounts {
	return recoveryCounts{
		c.retransmits - o.retransmits, c.watchdogFires - o.watchdogFires,
		c.rePolls - o.rePolls, c.piFallbacks - o.piFallbacks,
	}
}

// recoveries returns the host's cumulative recovery activity: TCP
// retransmission timeouts on both ends of its wires, TX-watchdog
// re-kicks, vhost re-polls and posted-to-emulated delivery fallbacks.
func (h *hostBed) recoveries() recoveryCounts {
	c := recoveryCounts{piFallbacks: h.k.PIFallbacks}
	for _, kern := range h.kerns {
		c.retransmits += kern.TCPRetransmits
		c.watchdogFires += kern.Dev.WatchdogFires
	}
	for _, pe := range h.peers {
		c.retransmits += pe.Retransmits
	}
	for _, d := range h.devs {
		c.rePolls += d.RePolls
	}
	return c
}

// redirectCounts tallies the Redirector's routing decisions.
type redirectCounts struct {
	redirected, kept, online, offline uint64
}

func (c redirectCounts) plus(o redirectCounts) redirectCounts {
	return redirectCounts{
		c.redirected + o.redirected, c.kept + o.kept,
		c.online + o.online, c.offline + o.offline,
	}
}

func (c redirectCounts) minus(o redirectCounts) redirectCounts {
	return redirectCounts{
		c.redirected - o.redirected, c.kept - o.kept,
		c.online - o.online, c.offline - o.offline,
	}
}

// fill sets the redirect and offline-predict rates of r.
func (c redirectCounts) fill(r *Result) {
	if c.redirected+c.kept > 0 {
		r.RedirectRate = float64(c.redirected) / float64(c.redirected+c.kept)
	}
	if c.online+c.offline > 0 {
		r.OfflinePredictRate = float64(c.offline) / float64(c.online+c.offline)
	}
}

// redirects returns the Redirector's cumulative decisions (zero when
// redirection is off).
func (h *hostBed) redirects() redirectCounts {
	red := h.es.Redirector
	if red == nil {
		return redirectCounts{}
	}
	return redirectCounts{red.Redirected, red.KeptAffinity, red.OnlineHits, red.OfflinePredicts}
}

// vhostBusy returns the cumulative CPU time of the host's I/O threads.
func (h *hostBed) vhostBusy() sim.Time {
	var busy sim.Time
	for _, io := range h.ios {
		busy += io.Thread.SumExec()
	}
	return busy
}

// startWindow opens the measurement window: it zeroes the host's VM,
// device, injector, path spectra and profile statistics and snapshots
// the cumulative counters the window's deltas are measured from.
func (h *hostBed) startWindow() {
	for _, vm := range h.vms {
		vm.ResetStats()
	}
	for _, d := range h.devs {
		d.ResetStats()
	}
	h.vhostBusy0 = h.vhostBusy()
	h.redir0 = h.redirects()
	h.rec0 = h.recoveries()
	if h.inj != nil {
		h.inj.ResetCounters()
	}
	h.hs.probe.ResetSpectra()
	if h.prof != nil {
		// Zero the attribution tree at the same instant the stat
		// counters reset, so the profile reconciles with TIG/VhostCPU
		// exactly (both sides see the same charge boundaries).
		h.prof.Reset()
	}
}

// addVMCounters adds VM vi's exit, device-interrupt and wire counters
// over the window into r.
func (h *hostBed) addVMCounters(r *Result, vi int, window sim.Time) {
	vm := h.vms[vi]
	for i := 0; i < vmm.NumExitReasons; i++ {
		r.ExitRates[vmm.ExitReason(i).String()] += vm.Exits.Rate(i, window)
	}
	r.TotalExitRate += vm.Exits.TotalRate(window)
	r.IOExitRate += vm.Exits.Rate(int(vmm.ExitIOInstruction), window)
	r.DevIRQRate += vm.DevIRQDelivered.Rate(window)
	for _, d := range h.devsByVM[vi] {
		r.TxPkts += d.TxPkts
		r.RxPkts += d.RxPkts
		r.Drops += d.BacklogDrops
	}
	r.Drops += h.kerns[vi].Dev.LocalDrops
}

// vcpuTime sums guest-mode and total (guest plus host mode) vCPU time
// over vms.
func vcpuTime(vms []*vmm.VM) (guest, total sim.Time) {
	for _, vm := range vms {
		for _, v := range vm.VCPUs {
			guest += v.GuestTime
			total += v.GuestTime + v.HostTime
		}
	}
	return guest, total
}

// fillHost sets the Result fields every host reports the same way:
// vhost busy fraction, redirect and offline-predict rates, the
// event-path breakdown and the CPU profile.
func (h *hostBed) fillHost(r *Result, window sim.Time) {
	r.VhostCPU = vhostCPU(h.vhostBusy()-h.vhostBusy0, window, h.hs.vhostCores)
	h.redirects().minus(h.redir0).fill(r)
	for s := causal.Stage(0); s < causal.NumStages; s++ {
		if sp := h.hs.probe.Spectrum(s); sp != nil && sp.Count() > 0 {
			r.PathBreakdown = append(r.PathBreakdown, PathStage{
				Stage: s.String(), Count: sp.Count(), Mean: time.Duration(sp.Mean()),
				P50: time.Duration(sp.Quantile(0.5)), P99: time.Duration(sp.Quantile(0.99)),
				Max: time.Duration(sp.Max()),
			})
		}
	}
	if h.prof != nil {
		h.prof.Finalize(window)
		r.CPUProfile = h.prof
		r.CPUReport = buildCPUReport(h.prof, h.hs.vhostCores, window)
	}
}

// vhostCPU is busy time as a fraction of the window on the given
// number of vhost cores.
func vhostCPU(busy, window sim.Time, cores int) float64 {
	if cores <= 0 || window <= 0 {
		return 0
	}
	return float64(busy) / (float64(window) * float64(cores))
}

// newFaultReport assembles a FaultReport from injected-fault tallies
// and the recovery work they triggered.
func newFaultReport(c faults.Counters, rec recoveryCounts) *FaultReport {
	return &FaultReport{
		Injected:      c.Injected(),
		WireDrops:     c.WireDrops,
		WireDups:      c.WireDups,
		LostKicks:     c.LostKicks,
		LostSignals:   c.LostSignals,
		VhostStalls:   c.VhostStalls,
		PIOutages:     c.PIOutages,
		PreemptStorms: c.PreemptStorms,
		Retransmits:   rec.retransmits,
		WatchdogFires: rec.watchdogFires,
		VhostRePolls:  rec.rePolls,
		PIFallbacks:   rec.piFallbacks,
	}
}
