package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"es2"
	"es2/experiments"
)

// workload is one benchmark input set: a fixed list of simulator calls
// taken from the repository's own experiment definitions, so the
// benchmark adds no scenario semantics of its own.
type workload struct {
	name string
	// why records which layers the workload stresses and why it was
	// chosen; it is printed with the results.
	why       string
	scenarios []scenario
	// warmup is the scaled-down variant of scenarios, run once untimed
	// before the timed passes: it grows the heap and touches the code
	// for a fraction of a full pass's cost, leaving more of the run's
	// budget for timed passes.
	warmup []scenario
}

// workloadNames lists the workloads in the order `all` runs them.
var workloadNames = []string{"up-stream", "smp-memcached", "rack-closed", "day-openloop"}

// smallWindow is the single-host measurement window of a scaled-down
// workload, and smallClusterScale the ScaleCluster factor of its
// cluster scenarios. The warm-up and the smoke test run these variants.
// Below about 50ms a multiplexed memcached VM may not be scheduled at
// all in the window, and the run would fail validation.
const (
	smallWindow       = 50 * time.Millisecond
	smallClusterScale = 16
)

// newWorkload builds the named workload with every spec seeded by seed.
// small selects the scaled-down variant the smoke test runs.
func newWorkload(name string, seed uint64, small bool) (workload, error) {
	w, err := defineWorkload(name, seed, small)
	if err != nil {
		return w, err
	}
	warm, err := defineWorkload(name, seed, true)
	w.warmup = warm.scenarios
	return w, err
}

func defineWorkload(name string, seed uint64, small bool) (workload, error) {
	host := func(specs ...es2.ScenarioSpec) []scenario {
		var out []scenario
		for _, s := range specs {
			s := s
			s.Seed = seed
			if small {
				s.Warmup, s.Duration = smallWindow/2, smallWindow
			}
			out = append(out, scenario{host: &s})
		}
		return out
	}
	cluster := func(e experiments.ClusterExperiment) []scenario {
		if small {
			e = experiments.ScaleCluster(e, smallClusterScale)
		}
		var out []scenario
		for _, s := range e.Specs {
			s := s
			s.Seed = seed
			out = append(out, scenario{cluster: &s})
		}
		return out
	}
	switch name {
	case "up-stream":
		// fig5a's TCP rows: Baseline, PI and PI+H (quota 4).
		return workload{name: name,
			why: "per-packet single-host event path: vmm exits, virtio kicks, vhost turns, netsim; " +
				"no vCPU multiplexing, fabric or loadgen",
			scenarios: host(experiments.Fig5a().Specs[:3]...)}, nil
	case "smp-memcached":
		// The run0 replica of each of fig8a's four configs.
		specs := experiments.Fig8a().Specs
		var run0 []es2.ScenarioSpec
		for i := 0; i < len(specs); i += len(specs) / 4 {
			run0 = append(run0, specs[i])
		}
		return workload{name: name,
			why: "4 VMs x 4 vCPUs on 4 cores: sched dispatch and preemption plus IRQ redirection; " +
				"single host, no fabric or loadgen",
			scenarios: host(run0...)}, nil
	case "rack-closed":
		return workload{name: name,
			why: "rack1: 8 hosts, 32 multiplexed VMs, 2048 closed-loop RPC flows; " +
				"deepest closed-loop event queue, the fabric, the costliest set-up",
			scenarios: cluster(experiments.Rack1())}, nil
	case "day-openloop":
		return workload{name: name,
			why: "daycycle: rack1 topology with pinned vCPUs under the open-loop loadgen day; " +
				"growing backlog instead of a closed loop",
			scenarios: cluster(experiments.Daycycle())}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// scenario is one simulator call: exactly one of host and cluster is set.
type scenario struct {
	host    *es2.ScenarioSpec
	cluster *es2.ClusterSpec
}

func (s scenario) name() string {
	if s.host != nil {
		return s.host.Name
	}
	return s.cluster.Name
}

// with returns a copy of s whose spec has been edited by the matching
// function (either may be nil when the workload has no such scenario).
func (s scenario) with(host func(*es2.ScenarioSpec), cluster func(*es2.ClusterSpec)) scenario {
	if s.host != nil {
		h := *s.host
		if host != nil {
			host(&h)
		}
		return scenario{host: &h}
	}
	c := *s.cluster
	if cluster != nil {
		cluster(&c)
	}
	return scenario{cluster: &c}
}

// withStats turns engine stats on: the traced pass.
func (s scenario) withStats() scenario {
	return s.with(func(h *es2.ScenarioSpec) { h.EngineStats = true },
		func(c *es2.ClusterSpec) { c.EngineStats = true })
}

// forSetup shrinks both simulated windows to 1ns, so a run is testbed
// assembly, 2ns of simulation and result assembly.
func (s scenario) forSetup() scenario {
	return s.with(func(h *es2.ScenarioSpec) { h.Warmup, h.Duration = 1, 1 },
		func(c *es2.ClusterSpec) { c.Warmup, c.Duration = 1, 1 })
}

// outcome is what one simulator call produced.
type outcome struct {
	name   string
	res    any // *es2.Result or *es2.ClusterResult
	json   []byte
	engine *es2.EngineReport
	// run times Run/RunCluster, encode the json.Marshal of the result.
	run, encode time.Duration
	// mem0/mem1 bracket the call (outside the timed region).
	mem0, mem1 runtime.MemStats
	err        error
}

// exec runs the scenario once. A panic inside the simulator is
// recovered and reported as the outcome's error, so one bad scenario
// cannot abort the benchmark.
func (s scenario) exec(tr *tracer, parent, scenarioID int) (o outcome) {
	o.name = s.name()
	span := tr.begin("scenario:"+o.name, parent, scenarioID)
	defer tr.end(span)
	runtime.ReadMemStats(&o.mem0)
	defer func() {
		if p := recover(); p != nil {
			o.err = fmt.Errorf("%s: panic: %v", o.name, p)
		}
		runtime.ReadMemStats(&o.mem1)
	}()
	runSpan := tr.begin("es2.run", span, scenarioID)
	t0 := time.Now()
	var err error
	if s.host != nil {
		var r *es2.Result
		r, err = es2.Run(*s.host)
		if r != nil {
			o.res, o.engine = r, r.EngineReport
		}
	} else {
		var r *es2.ClusterResult
		r, err = es2.RunCluster(*s.cluster)
		if r != nil {
			o.res, o.engine = r, r.EngineReport
		}
	}
	t1 := time.Now()
	tr.end(runSpan)
	o.run = t1.Sub(t0)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", o.name, err)
		return o
	}
	encSpan := tr.begin("encode", span, scenarioID)
	o.json, err = json.Marshal(o.res)
	o.encode = time.Since(t1)
	tr.end(encSpan)
	if err != nil {
		o.err = fmt.Errorf("%s: encode: %w", o.name, err)
	}
	return o
}

// validate rejects a result that ran but is not a usable measurement.
func validate(res any) error {
	switch r := res.(type) {
	case *es2.Result:
		return nonEmpty(r)
	case *es2.ClusterResult:
		if err := nonEmpty(r.Aggregate); err != nil {
			return err
		}
		if r.Fabric == nil || r.Fabric.RouteDrops != 0 {
			return errors.New("fabric dropped frames for lack of a route")
		}
		if l := r.Load; l != nil && l.Arrivals != l.Offered {
			return fmt.Errorf("loadgen arrivals %d != offered %d", l.Arrivals, l.Offered)
		}
		return nil
	}
	return fmt.Errorf("unexpected result type %T", res)
}

// nonEmpty checks that packets moved and the workload completed work.
func nonEmpty(r *es2.Result) error {
	if r == nil {
		return errors.New("no result")
	}
	if r.TxPkts+r.RxPkts == 0 {
		return errors.New("no packets moved in the measurement window")
	}
	if r.OpsPerSec <= 0 && r.ThroughputMbps <= 0 {
		return errors.New("neither ops nor throughput in the measurement window")
	}
	return nil
}

// pass is one run over a workload's scenarios.
type pass struct {
	// wall is the sum of the timed regions (Run plus encode) of every
	// scenario.
	wall time.Duration
	// times holds each scenario's timed region in seconds, scaled by
	// the machine slowdown measured around it (see calibrate.go).
	times    []float64
	outcomes []outcome
}

// calibrated is the pass's total calibrated time in seconds.
func (p pass) calibrated() float64 {
	sum := 0.0
	for _, x := range p.times {
		sum += x
	}
	return sum
}

// runPass runs every scenario once, in order, on this goroutine, with a
// reference burst before the first scenario and after each one.
func runPass(scs []scenario, tr *tracer, name string, parent int) pass {
	span := tr.begin(name, parent, 0)
	defer tr.end(span)
	var p pass
	before := slowdown(passBurst)
	for _, sc := range scs {
		o := sc.exec(tr, span, tr.newScenarioID())
		after := slowdown(passBurst)
		if err := validate(o.res); o.err == nil && err != nil {
			o.err = fmt.Errorf("%s: %w", o.name, err)
		}
		p.wall += o.run + o.encode
		p.times = append(p.times, (o.run+o.encode).Seconds()/((before+after)/2))
		p.outcomes = append(p.outcomes, o)
		before = after
	}
	return p
}

// tally counts attempted and failed scenario runs and keeps each
// failure's message. A run fails when it errors, panics, fails
// validation, or (when ref is non-nil) encodes to a digest different
// from the reference pass.
type tally struct {
	attempted, failed int
	errors            []string
}

func (t *tally) add(p pass, ref [][sha256.Size]byte) {
	for i, o := range p.outcomes {
		t.attempted++
		switch {
		case o.err != nil:
			t.fail(o.err.Error())
		case ref != nil && sha256.Sum256(o.json) != ref[i]:
			t.fail(o.name + ": result differs from the first timed pass")
		}
	}
}

func (t *tally) fail(msg string) {
	t.failed++
	t.errors = append(t.errors, msg)
}

// digests returns the per-scenario SHA-256 of a pass's canonical JSON.
func digests(p pass) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = sha256.Sum256(o.json)
	}
	return out
}

// passDigest hashes the whole pass: every scenario's JSON followed by a
// newline, in scenario order.
func passDigest(p pass) string {
	h := sha256.New()
	for _, o := range p.outcomes {
		h.Write(o.json)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setupBuilds is how many set-up builds setup_s takes the median of.
const setupBuilds = 41

// setupSample is one set-up build of every scenario of a workload.
type setupSample struct {
	// seconds is the build's host time scaled by the machine slowdown
	// measured around it.
	seconds float64
	allocMB float64
}

// measureSetup builds every scenario n times with 1ns windows, counting
// each build of each scenario in t. The GC is paused inside each build
// and run to completion before it, so a collection triggered by earlier
// work never lands in a build.
func measureSetup(scs []scenario, n int, tr *tracer, parent int, t *tally) []setupSample {
	var setup []scenario
	for _, sc := range scs {
		setup = append(setup, sc.forSetup())
	}
	out := make([]setupSample, 0, n)
	for i := 0; i < n; i++ {
		before := slowdown(setupBurst)
		runtime.GC()
		span := tr.begin("setup", parent, 0)
		old := debug.SetGCPercent(-1)
		var s setupSample
		var wall time.Duration
		for _, sc := range setup {
			o := sc.exec(tr, span, tr.newScenarioID())
			wall += o.run
			s.allocMB += float64(o.mem1.TotalAlloc-o.mem0.TotalAlloc) / (1 << 20)
			t.attempted++
			if o.err != nil {
				t.fail(o.err.Error())
			}
		}
		debug.SetGCPercent(old)
		tr.end(span)
		s.seconds = wall.Seconds() / ((before + slowdown(setupBurst)) / 2)
		out = append(out, s)
	}
	return out
}
