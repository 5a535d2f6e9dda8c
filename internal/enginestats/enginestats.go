// Package enginestats measures the simulation engine itself: real
// wall-clock time, allocation pressure, heap behavior and
// per-subsystem cost of the event loop. Everything else in this repo
// observes the *simulated* world; this package observes the simulator,
// and is the measurement layer every engine optimization (sharding,
// calendar queues, parallel execution) is judged against.
//
// A Collector attaches to one sim.Engine. The engine feeds it two
// streams: a per-event hook (RunEvent) that tracks the
// events-per-sim-tick distribution and — for a deterministic 1-in-N
// sample of events — times the callback with time.Now and charges the
// elapsed wall time and allocated bytes to the subsystem (Go package)
// that scheduled the event. Sampling bounds the overhead at the default
// interval (EXPERIMENTS.md records the measured figure); the sampling
// decision is a plain counter, so enabling stats never perturbs the
// simulation — simulated results are byte-identical with and without
// it.
//
// Attribution labels come from the scheduling call site: when an event
// is selected for sampling, SampleSite walks the caller PCs past the
// sim package and interns the first foreign package name ("vhost",
// "sched", "guest", ...). PC→label resolutions are cached, so the
// runtime.Callers walk is paid once per call site, not per sample.
//
// Allocation attribution reads the process-wide heap allocation
// counter (runtime/metrics), so when several engines run concurrently
// (RunMany) the per-subsystem allocation split is cross-contaminated;
// wall-time rows remain per-engine accurate. Benchmarks that care
// (bash bench/run.sh --trace 1) run one scenario at a time.
package enginestats

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// DefaultSampleN is the default 1-in-N event sampling interval. At
// typical event costs (0.5–5µs of real work per callback) the two
// time.Now calls plus one runtime/metrics read per sampled event stay
// below 2% of total wall time.
const DefaultSampleN = 128

// heapAllocsMetric is the monotonically increasing total of heap bytes
// allocated, cheap to read relative to runtime.ReadMemStats.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// HeapStats summarizes event-queue behavior. The engine maintains
// these counters unconditionally (they are plain increments); the
// wall-clock Collector is what costs anything and stays opt-in.
type HeapStats struct {
	// Pushes counts scheduled events, Pops the fired ones and Cancels
	// those Handle.Cancel removed before they fired, so Pushes always
	// equals Pops + Cancels + Pending. Moves counts the queued events
	// Handle.Move re-keyed; a moved event stays queued, so moves leave
	// that identity alone.
	Pushes  uint64 `json:"pushes"`
	Pops    uint64 `json:"pops"`
	Cancels uint64 `json:"cancels"`
	Moves   uint64 `json:"moves"`
	// MaxDepth is the deepest the queue ever got; MeanDepth is the
	// mean queue length observed at push time.
	MaxDepth  int     `json:"max_depth"`
	MeanDepth float64 `json:"mean_depth"`
	// Pending is the queue length at snapshot time. Cancelled events
	// leave the queue at once, so every queued event is live.
	Pending int `json:"pending"`
}

// TickBucket is one bucket of the events-per-sim-tick distribution:
// Ticks distinct simulated instants executed between MinEvents and
// MaxEvents events each. Buckets are powers of two.
type TickBucket struct {
	MinEvents uint64 `json:"min_events"`
	MaxEvents uint64 `json:"max_events"`
	Ticks     uint64 `json:"ticks"`
}

// SubsystemRow is the sampled wall/allocation attribution of one
// subsystem (the Go package that scheduled the events).
type SubsystemRow struct {
	Name string `json:"name"`
	// Samples is the number of sampled event callbacks charged here.
	Samples uint64 `json:"samples"`
	// WallNs and AllocBytes are sums over the sampled callbacks only;
	// multiply by the report's SampleN for a whole-run estimate.
	WallNs     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// WallShare is this row's fraction of all sampled wall time.
	WallShare float64 `json:"wall_share"`
}

// Report is the engine performance report of one run. All keys are
// stable snake_case. Wall-clock values are machine-dependent and
// nondeterministic, which is why results embed the report outside
// their deterministic JSON surface.
type Report struct {
	// WallNs is real time spent inside Engine.Run between Start and
	// Stop (build/assembly excluded).
	WallNs int64 `json:"wall_ns"`
	// EventsFired is the engine's total executed-event count.
	EventsFired uint64 `json:"events_fired"`
	// EventsPerSec is EventsFired over wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// SimSeconds is the simulated span covered; SimSecondsPerWallSecond
	// is the time-compression ratio (>1 means faster than real time).
	SimSeconds              float64 `json:"sim_seconds"`
	SimSecondsPerWallSecond float64 `json:"sim_seconds_per_wall_second"`

	Heap HeapStats `json:"heap"`
	// Ticks is the number of distinct simulated instants executed;
	// EventsPerTick is their log-bucketed distribution.
	Ticks         uint64       `json:"ticks"`
	EventsPerTick []TickBucket `json:"events_per_tick,omitempty"`

	// SampleN and SampledEvents describe the sampling frame behind
	// Subsystems (top-K by sampled wall time, descending).
	SampleN       int            `json:"sample_n"`
	SampledEvents uint64         `json:"sampled_events"`
	Subsystems    []SubsystemRow `json:"subsystems,omitempty"`

	// Whole-run runtime.MemStats deltas between Start and Stop.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
	NumGC      uint32 `json:"num_gc"`
}

// subsystem accumulates one label's sampled charges.
type subsystem struct {
	samples uint64
	wallNs  int64
	alloc   uint64
}

// Collector gathers engine-loop statistics for one engine. Not safe
// for concurrent use — like the engine it attaches to, it lives on one
// goroutine.
type Collector struct {
	sampleN     int
	sinceSample int
	sampled     uint64

	labels   []string // label id → package name; id 0 = unsampled
	labelIDs map[string]int32
	sites    map[uintptr]int32 // call-site PC → label id (0 = sim-internal)
	subs     []subsystem       // indexed by label id

	lastTick   int64
	haveTick   bool
	tickRunLen uint64
	ticks      uint64
	tickDist   [17]uint64 // bucket i: run length in [2^(i-1)+1, 2^i]; bucket 0: 1

	allocSample [1]metrics.Sample

	// now reads the wall clock (time.Now; tests substitute a fake).
	now     func() time.Time
	running bool
	t0      time.Time
	wallNs  int64
	mem0    runtime.MemStats
	mem1    runtime.MemStats
}

// New returns a collector sampling one event callback in sampleN
// (non-positive selects DefaultSampleN).
func New(sampleN int) *Collector {
	if sampleN <= 0 {
		sampleN = DefaultSampleN
	}
	c := &Collector{
		sampleN:  sampleN,
		labels:   []string{""}, // id 0 reserved: unsampled / sim-internal
		labelIDs: make(map[string]int32),
		sites:    make(map[uintptr]int32),
		subs:     make([]subsystem, 1),
		now:      time.Now,
	}
	c.allocSample[0].Name = heapAllocsMetric
	return c
}

// SampleN returns the 1-in-N sampling interval.
func (c *Collector) SampleN() int { return c.sampleN }

// Start opens the wall-clock measurement. Call it immediately before
// the first Engine.Run so assembly/build time is excluded.
func (c *Collector) Start() {
	if c == nil || c.running {
		return
	}
	runtime.ReadMemStats(&c.mem0)
	c.running = true
	c.t0 = c.now()
}

// Stop closes the wall-clock measurement. Start/Stop may bracket
// multiple Engine.Run calls; intervals accumulate.
func (c *Collector) Stop() {
	if c == nil || !c.running {
		return
	}
	c.wallNs += c.now().Sub(c.t0).Nanoseconds()
	c.running = false
	runtime.ReadMemStats(&c.mem1)
}

// SampleSite is called by the engine once per scheduled event. It
// returns 0 for the (N-1)-in-N unsampled majority; for the 1-in-N
// sample it resolves the scheduling package from the caller stack and
// returns its interned label id. The decision is a plain counter, so
// it is deterministic across runs of the same spec.
func (c *Collector) SampleSite() int32 {
	c.sinceSample++
	if c.sinceSample < c.sampleN {
		return 0
	}
	c.sinceSample = 0
	var pcs [8]uintptr
	// Skip runtime.Callers, SampleSite and the engine method that
	// called it (At, AtKey, or the reservation behind DelayLine.At);
	// the first captured frame is that method's caller (possibly
	// Engine.After or another sim-internal wrapper, skipped below).
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		id, ok := c.sites[pc]
		if !ok {
			id = c.resolve(pc)
			c.sites[pc] = id
		}
		if id != 0 {
			return id
		}
	}
	return c.intern("sim") // engine-internal scheduling only
}

// resolve maps one caller PC to a label id (0 when the frame belongs
// to the sim package and the walk should continue outward).
func (c *Collector) resolve(pc uintptr) int32 {
	frames := runtime.CallersFrames([]uintptr{pc})
	f, _ := frames.Next()
	name := f.Function
	if name == "" {
		return 0
	}
	// "es2/internal/vhost.(*Device).kick" → package element "vhost";
	// "es2.Run.func2" → "es2"; "main.main" → "main".
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	if j := strings.IndexByte(name, '.'); j >= 0 {
		name = name[:j]
	}
	if name == "sim" {
		return 0
	}
	return c.intern(name)
}

func (c *Collector) intern(label string) int32 {
	if id, ok := c.labelIDs[label]; ok {
		return id
	}
	id := int32(len(c.labels))
	c.labels = append(c.labels, label)
	c.labelIDs[label] = id
	c.subs = append(c.subs, subsystem{})
	return id
}

// RunEvent executes one event callback on the collector's watch:
// the tick-run accounting always happens; sampled events (label != 0)
// are additionally timed and charged.
func (c *Collector) RunEvent(tick int64, label int32, fn func()) {
	if !c.haveTick || tick != c.lastTick {
		c.flushTick()
		c.lastTick = tick
		c.haveTick = true
	}
	c.tickRunLen++
	if label == 0 {
		fn()
		return
	}
	a0 := c.readAllocBytes()
	t0 := c.now()
	fn()
	d := c.now().Sub(t0).Nanoseconds()
	a1 := c.readAllocBytes()
	c.sampled++
	s := &c.subs[label]
	s.samples++
	s.wallNs += d
	if a1 > a0 {
		s.alloc += a1 - a0
	}
}

func (c *Collector) readAllocBytes() uint64 {
	metrics.Read(c.allocSample[:])
	if c.allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return c.allocSample[0].Value.Uint64()
}

// flushTick closes the current same-instant run into the distribution.
func (c *Collector) flushTick() {
	if c.tickRunLen == 0 {
		return
	}
	b := bits.Len64(c.tickRunLen - 1) // 1→0, 2→1, 3..4→2, 5..8→3, ...
	if b >= len(c.tickDist) {
		b = len(c.tickDist) - 1
	}
	c.tickDist[b]++
	c.ticks++
	c.tickRunLen = 0
}

// Report assembles the performance report. fired and heap come from
// the engine (the caller owns that handle; this package has no sim
// dependency), simSeconds is the simulated span the Start/Stop window
// covered, and topK bounds the subsystem table (<=0 keeps every row).
func (c *Collector) Report(fired uint64, heap HeapStats, simSeconds float64, topK int) *Report {
	c.Stop()
	c.flushTick()
	r := &Report{
		WallNs:      c.wallNs,
		EventsFired: fired,
		SimSeconds:  simSeconds,
		Heap:        heap,
		Ticks:       c.ticks,
		SampleN:     c.sampleN,

		SampledEvents: c.sampled,
		AllocBytes:    c.mem1.TotalAlloc - c.mem0.TotalAlloc,
		Mallocs:       c.mem1.Mallocs - c.mem0.Mallocs,
		GCPauseNs:     c.mem1.PauseTotalNs - c.mem0.PauseTotalNs,
		NumGC:         c.mem1.NumGC - c.mem0.NumGC,
	}
	if c.wallNs > 0 {
		r.EventsPerSec = float64(fired) / (float64(c.wallNs) / 1e9)
		r.SimSecondsPerWallSecond = simSeconds / (float64(c.wallNs) / 1e9)
	}
	for b, n := range c.tickDist {
		if n == 0 {
			continue
		}
		min, max := uint64(1), uint64(1)
		if b > 0 {
			min = uint64(1)<<(b-1) + 1
			max = uint64(1) << b
		}
		r.EventsPerTick = append(r.EventsPerTick, TickBucket{MinEvents: min, MaxEvents: max, Ticks: n})
	}
	var totalWall int64
	for id := 1; id < len(c.subs); id++ {
		s := c.subs[id]
		if s.samples == 0 {
			continue
		}
		totalWall += s.wallNs
		r.Subsystems = append(r.Subsystems, SubsystemRow{
			Name: c.labels[id], Samples: s.samples,
			WallNs: s.wallNs, AllocBytes: s.alloc,
		})
	}
	sort.Slice(r.Subsystems, func(i, j int) bool {
		a, b := r.Subsystems[i], r.Subsystems[j]
		if a.WallNs != b.WallNs {
			return a.WallNs > b.WallNs
		}
		return a.Name < b.Name
	})
	if topK > 0 && len(r.Subsystems) > topK {
		r.Subsystems = r.Subsystems[:topK]
	}
	if totalWall > 0 {
		for i := range r.Subsystems {
			r.Subsystems[i].WallShare = float64(r.Subsystems[i].WallNs) / float64(totalWall)
		}
	}
	return r
}

// Render formats the report as the human-readable block the CLIs
// print.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine     %s wall, %s events (%s events/s, sim/wall %.2fx)\n",
		time.Duration(r.WallNs).Round(time.Millisecond), countStr(r.EventsFired),
		countStr(uint64(r.EventsPerSec)), r.SimSecondsPerWallSecond)
	fmt.Fprintf(&b, "  heap     %s pushes, %s pops, %s cancels, %s moves, max depth %d, mean depth %.1f; %s ticks\n",
		countStr(r.Heap.Pushes), countStr(r.Heap.Pops), countStr(r.Heap.Cancels), countStr(r.Heap.Moves),
		r.Heap.MaxDepth, r.Heap.MeanDepth, countStr(r.Ticks))
	fmt.Fprintf(&b, "  memory   %s allocated in %s objects (%.3f allocs/event, %.1f B/event), %d GCs (%v paused)\n",
		byteStr(r.AllocBytes), countStr(r.Mallocs), r.perEvent(r.Mallocs), r.perEvent(r.AllocBytes),
		r.NumGC, time.Duration(r.GCPauseNs).Round(time.Microsecond))
	if len(r.Subsystems) > 0 {
		fmt.Fprintf(&b, "  subsystems (1-in-%d sampled, %s samples):\n", r.SampleN, countStr(r.SampledEvents))
		fmt.Fprintf(&b, "    %-14s %10s %12s %12s %7s\n", "package", "samples", "wall", "alloc", "share")
		for _, s := range r.Subsystems {
			fmt.Fprintf(&b, "    %-14s %10d %12v %12s %6.1f%%\n",
				s.Name, s.Samples, time.Duration(s.WallNs).Round(time.Microsecond),
				byteStr(s.AllocBytes), 100*s.WallShare)
		}
	}
	return b.String()
}

// perEvent divides a whole-run total by the events fired (0 when none
// fired).
func (r *Report) perEvent(n uint64) float64 {
	if r.EventsFired == 0 {
		return 0
	}
	return float64(n) / float64(r.EventsFired)
}

func countStr(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

func byteStr(n uint64) string {
	switch {
	case n >= 10<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 10<<10:
		return fmt.Sprintf("%.0fkB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
