package enginestats

import (
	"strings"
	"testing"
	"time"
)

func TestNewDefaultsSampleN(t *testing.T) {
	if got := New(0).SampleN(); got != DefaultSampleN {
		t.Fatalf("New(0).SampleN() = %d, want %d", got, DefaultSampleN)
	}
	if got := New(-3).SampleN(); got != DefaultSampleN {
		t.Fatalf("New(-3).SampleN() = %d, want %d", got, DefaultSampleN)
	}
	if got := New(7).SampleN(); got != 7 {
		t.Fatalf("New(7).SampleN() = %d, want 7", got)
	}
}

func TestSampleSiteInterval(t *testing.T) {
	c := New(4)
	sampled := 0
	for i := 0; i < 40; i++ {
		if c.SampleSite() != 0 {
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 with N=4, want 10", sampled)
	}
}

// atDepth stands in for Engine.At: SampleSite's skip count is tuned
// for being called one frame below the scheduling call site.
func atDepth(c *Collector) int32 { return c.SampleSite() }

func TestSampleSiteLabelsThisPackage(t *testing.T) {
	c := New(1)
	id := atDepth(c)
	if id == 0 {
		t.Fatalf("N=1 collector returned unsampled")
	}
	// The caller stack has no sim frames, so the first foreign frame is
	// this test (package enginestats).
	if got := c.labels[id]; got != "enginestats" {
		t.Fatalf("label = %q, want enginestats", got)
	}
	if id2 := atDepth(c); id2 != id {
		t.Fatalf("same call site resolved to different ids: %d then %d", id, id2)
	}
}

// fakeClock stands in for the wall clock: it reads a fixed instant
// that moves only when a test advances it, so timed callbacks charge
// exact durations.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// newFake returns a collector sampling one event in sampleN whose
// clock is a fake.
func newFake(sampleN int) (*Collector, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := New(sampleN)
	c.now = clk.now
	return c, clk
}

func TestRunEventChargesLabel(t *testing.T) {
	c, clk := newFake(1)
	id := c.intern("vhost")
	ran := false
	c.RunEvent(10, id, func() {
		ran = true
		clk.advance(time.Millisecond)
	})
	c.RunEvent(10, 0, func() { clk.advance(time.Millisecond) }) // unsampled: counted in tick run only
	if !ran {
		t.Fatalf("callback did not run")
	}
	r := c.Report(2, HeapStats{}, 1e-3, 0)
	if len(r.Subsystems) != 1 || r.Subsystems[0].Name != "vhost" {
		t.Fatalf("subsystems = %+v, want one vhost row", r.Subsystems)
	}
	row := r.Subsystems[0]
	if row.Samples != 1 || row.WallNs != int64(time.Millisecond) {
		t.Fatalf("vhost row = %+v, want 1 sample with exactly 1ms wall", row)
	}
	if row.WallShare != 1 {
		t.Fatalf("WallShare = %v, want 1 (only row)", row.WallShare)
	}
	if r.SampledEvents != 1 {
		t.Fatalf("SampledEvents = %d, want 1", r.SampledEvents)
	}
}

func TestTickDistribution(t *testing.T) {
	c := New(1 << 30) // effectively never sample; ticks still count
	// Tick 5: 1 event. Tick 6: 3 events. Tick 9: 8 events.
	c.RunEvent(5, 0, func() {})
	for i := 0; i < 3; i++ {
		c.RunEvent(6, 0, func() {})
	}
	for i := 0; i < 8; i++ {
		c.RunEvent(9, 0, func() {})
	}
	r := c.Report(12, HeapStats{}, 1, 0)
	if r.Ticks != 3 {
		t.Fatalf("Ticks = %d, want 3", r.Ticks)
	}
	want := map[uint64]uint64{1: 1, 4: 1, 8: 1} // buckets by MaxEvents: [1,1], [3,4], [5,8]
	got := map[uint64]uint64{}
	for _, b := range r.EventsPerTick {
		got[b.MaxEvents] = b.Ticks
	}
	for maxEv, n := range want {
		if got[maxEv] != n {
			t.Fatalf("events-per-tick = %+v, want buckets %v", r.EventsPerTick, want)
		}
	}
}

func TestReportRatesAndTopK(t *testing.T) {
	c, clk := newFake(1)
	// Row i runs i+1 sampled events of 50µs each: a=50µs, b=100µs,
	// c=150µs.
	for i, name := range []string{"a", "b", "c"} {
		id := c.intern(name)
		for j := 0; j <= i; j++ {
			c.RunEvent(int64(i), id, func() { clk.advance(50 * time.Microsecond) })
		}
	}
	c.Start()
	clk.advance(2 * time.Millisecond)
	r := c.Report(1000, HeapStats{Pushes: 1000, Pops: 1000}, 0.5, 2)
	if r.WallNs != int64(2*time.Millisecond) {
		t.Fatalf("WallNs = %d, want exactly 2ms", r.WallNs)
	}
	if r.EventsPerSec != 500_000 || r.SimSecondsPerWallSecond != 250 {
		t.Fatalf("rates = %v events/s, %vx sim/wall; want 500000 and 250",
			r.EventsPerSec, r.SimSecondsPerWallSecond)
	}
	// topK=2 keeps the two heaviest rows, wall-descending; shares stay
	// relative to all sampled wall time (300µs), row "a" included.
	want := []SubsystemRow{
		{Name: "c", Samples: 3, WallNs: 150_000, WallShare: 150_000.0 / 300_000},
		{Name: "b", Samples: 2, WallNs: 100_000, WallShare: 100_000.0 / 300_000},
	}
	if len(r.Subsystems) != len(want) {
		t.Fatalf("topK=2 kept %d rows: %+v", len(r.Subsystems), r.Subsystems)
	}
	for i, w := range want {
		got := r.Subsystems[i]
		got.AllocBytes = 0 // process-wide allocation counter: not the clock's to pin
		if got != w {
			t.Fatalf("row %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestStartStopAccumulate(t *testing.T) {
	c, clk := newFake(1)
	c.Start()
	clk.advance(time.Millisecond)
	c.Stop()
	if c.wallNs != int64(time.Millisecond) {
		t.Fatalf("wallNs = %d after first interval, want 1ms", c.wallNs)
	}
	clk.advance(5 * time.Millisecond) // between intervals: not charged
	c.Start()
	clk.advance(3 * time.Millisecond)
	c.Stop()
	if c.wallNs != int64(4*time.Millisecond) {
		t.Fatalf("wallNs = %d after second interval, want 4ms", c.wallNs)
	}
	// Idempotent stop, nil-safe both.
	clk.advance(time.Millisecond)
	c.Stop()
	if c.wallNs != int64(4*time.Millisecond) {
		t.Fatalf("second Stop charged time: wallNs = %d", c.wallNs)
	}
	var nilC *Collector
	nilC.Start()
	nilC.Stop()
}

func TestRenderMentionsKeyFigures(t *testing.T) {
	c, clk := newFake(1)
	id := c.intern("sched")
	c.RunEvent(1, id, func() { clk.advance(250 * time.Microsecond) })
	c.Start()
	clk.advance(time.Millisecond)
	r := c.Report(42, HeapStats{Pushes: 45, Pops: 42, Cancels: 3, Moves: 5, MaxDepth: 7}, 1, 0)
	// The memory deltas are the process's own; fix them for the check.
	r.AllocBytes, r.Mallocs = 2121, 21
	out := r.Render()
	for _, want := range []string{
		"engine     1ms wall, 42 events (42k events/s, sim/wall 1000.00x)",
		"heap     45 pushes, 42 pops, 3 cancels, 5 moves, max depth 7",
		"memory   2121B allocated in 21 objects (0.500 allocs/event, 50.5 B/event)",
		"sched", "250µs", "100.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}
