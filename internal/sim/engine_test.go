package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"es2/internal/enginestats"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if DurationOf(2*time.Millisecond) != 2*Millisecond {
		t.Fatalf("DurationOf mismatch")
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Fatalf("Millis = %v, want 1.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000000s"},
		{-1500, "-1.500us"},
		{math.MinInt64, "-9223372036.854776s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order broken: order=%v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.At(10, func() { fired = true })
	if !h.Active() {
		t.Fatal("handle should be active before firing")
	}
	h.Cancel()
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Active() {
		t.Fatal("cancelled handle still active")
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(10, func() { fired = append(fired, 10) })
	e.At(50, func() { fired = append(fired, 50) })
	e.Run(30)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30 (horizon)", e.Now())
	}
	e.Run(100)
	if len(fired) != 2 {
		t.Fatalf("second Run should fire the remaining event, fired=%v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(Microsecond, tick)
		}
	}
	e.After(0, tick)
	e.RunAll()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*Microsecond {
		t.Fatalf("Now = %v, want 99us", e.Now())
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.RunAll()
}

func TestEngineNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	NewEngine(1).At(10, nil)
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(1, func() { n++; e.Stop() })
	e.At(2, func() { n++ })
	e.RunAll()
	if n != 1 {
		t.Fatalf("n = %d, want 1 (Stop should halt execution)", n)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestEngineStepSkipsCancelled(t *testing.T) {
	e := NewEngine(1)
	h := e.At(1, func() {})
	fired := false
	e.At(2, func() { fired = true })
	h.Cancel()
	if !e.Step() {
		t.Fatal("Step should execute the live event")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
}

func TestEngineEventsFired(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	e.RunAll()
	if e.EventsFired() != 5 {
		t.Fatalf("EventsFired = %d, want 5", e.EventsFired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

// Property: events fire in non-decreasing time order regardless of the
// insertion order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delays {
			e.At(Time(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunAll()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.ExpFloat64(); v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandExpDurationMean(t *testing.T) {
	r := NewRand(9)
	const mean = 100 * Microsecond
	var sum Time
	const n = 200000
	for i := 0; i < n; i++ {
		d := r.ExpDuration(mean)
		if d < 0 || d > 20*mean {
			t.Fatalf("ExpDuration out of range: %v", d)
		}
		sum += d
	}
	got := float64(sum) / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Fatalf("ExpDuration empirical mean %.0f, want ~%d", got, int64(mean))
	}
}

func TestRandJitter(t *testing.T) {
	r := NewRand(5)
	base := 1000 * Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, 0.25)
		if v < 750 || v > 1250 {
			t.Fatalf("Jitter out of range: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("Jitter with f=0 must return base")
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(11)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked generators should differ")
	}
}

// checkHeapInvariants asserts the two identities the heap counters
// keep, and the heap's shape. Every pushed event is popped, cancelled
// or still pending (a move leaves it pending), and every pop fires its
// event. Every entry records its own slot and orders after its parent.
func checkHeapInvariants(t *testing.T, e *Engine) {
	t.Helper()
	hs := e.HeapStats()
	if hs.Pushes != hs.Pops+hs.Cancels+uint64(hs.Pending) {
		t.Fatalf("pushes %d != pops %d + cancels %d + pending %d (%d moves)", hs.Pushes, hs.Pops, hs.Cancels, hs.Pending, hs.Moves)
	}
	if hs.Pops != e.EventsFired() {
		t.Fatalf("pops %d != events fired %d", hs.Pops, e.EventsFired())
	}
	for i, ev := range e.queue {
		if int(ev.idx) != i {
			t.Fatalf("heap slot %d holds an event that records slot %d", i, ev.idx)
		}
		if p := (i - 1) / 2; i > 0 && ev.before(e.queue[p]) {
			t.Fatalf("heap slot %d (%v, seq %d) orders before its parent (%v, seq %d)", i, ev.t, ev.seq, e.queue[p].t, e.queue[p].seq)
		}
	}
}

func TestEngineHeapStats(t *testing.T) {
	e := NewEngine(1)
	hs := e.HeapStats()
	if hs != (enginestats.HeapStats{}) {
		t.Fatalf("fresh engine heap stats not zero: %+v", hs)
	}
	e.At(10, func() {})
	h := e.At(20, func() {})
	e.At(30, func() {})
	hs = e.HeapStats()
	if hs.Pushes != 3 || hs.MaxDepth != 3 || hs.Pending != 3 {
		t.Fatalf("after 3 pushes: %+v", hs)
	}
	// Depth at push time was 1, 2, 3 → mean 2.
	if hs.MeanDepth != 2 {
		t.Fatalf("MeanDepth = %v, want 2", hs.MeanDepth)
	}
	checkHeapInvariants(t, e)
	h.Cancel()
	checkHeapInvariants(t, e)
	e.RunAll()
	hs = e.HeapStats()
	if hs.Pops != 2 || hs.Cancels != 1 || hs.Pending != 0 {
		t.Fatalf("after drain: %+v", hs)
	}
	checkHeapInvariants(t, e)
}

// Cancel takes its event out of the queue at once: Pending drops before
// anything steps, and the removal counts in Cancels, not Pops.
func TestEngineHeapStatsCountsCancels(t *testing.T) {
	e := NewEngine(1)
	h := e.At(10, func() { t.Error("cancelled event fired") })
	e.At(20, func() {})
	h.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after Cancel, want 1", e.Pending())
	}
	if hs := e.HeapStats(); hs.Cancels != 1 || hs.Pops != 0 {
		t.Fatalf("cancels/pops = %d/%d after Cancel, want 1/0", hs.Cancels, hs.Pops)
	}
	h.Cancel() // stale: counts nothing
	e.Run(100)
	hs := e.HeapStats()
	if hs.Pushes != 2 || hs.Pops != 1 || hs.Cancels != 1 || hs.Pending != 0 {
		t.Fatalf("after Run: %+v, want 2 pushes, 1 pop, 1 cancel", hs)
	}
	checkHeapInvariants(t, e)
}

func TestEngineSetStats(t *testing.T) {
	e := NewEngine(1)
	if e.Stats() != nil {
		t.Fatalf("fresh engine has a collector")
	}
	c := enginestats.New(1) // sample every event
	e.SetStats(c)
	if e.Stats() != c {
		t.Fatalf("Stats() did not return the attached collector")
	}
	fired := 0
	e.At(10, func() { fired++ })
	e.At(10, func() { fired++ })
	e.At(25, func() { fired++ })
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 (collector must pass events through)", fired)
	}
	r := c.Report(e.EventsFired(), e.HeapStats(), e.Now().Seconds(), 0)
	if r.EventsFired != 3 || r.Heap.Pushes != 3 {
		t.Fatalf("report fired/pushes = %d/%d, want 3/3", r.EventsFired, r.Heap.Pushes)
	}
	// Two distinct instants executed: tick 10 ran 2 events, tick 25 ran 1.
	if r.Ticks != 2 {
		t.Fatalf("Ticks = %d, want 2", r.Ticks)
	}
	e.SetStats(nil)
	if e.Stats() != nil {
		t.Fatalf("SetStats(nil) did not detach")
	}
}

// A handle whose event fired or was cancelled stays inert after the
// engine reuses the event for a new one.
func TestEngineStaleHandleAfterReuse(t *testing.T) {
	for _, cancel := range []bool{false, true} {
		e := NewEngine(1)
		old := e.At(1, func() {})
		if cancel {
			old.Cancel()
		}
		e.RunAll()
		fired := false
		h := e.At(2, func() { fired = true })
		if h.ev != old.ev {
			t.Fatalf("cancel=%t: the new event did not reuse the freed one", cancel)
		}
		old.Cancel()
		if old.Active() {
			t.Fatalf("cancel=%t: stale handle reports Active", cancel)
		}
		if !h.Active() {
			t.Fatalf("cancel=%t: cancelling a stale handle deactivated its successor", cancel)
		}
		e.RunAll()
		if !fired {
			t.Fatalf("cancel=%t: cancelling a stale handle cancelled its successor", cancel)
		}
	}
}

// Scheduling, cancelling and firing events allocates nothing once the
// queue and the free list have grown to the working depth.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(Second+Time(i), fn)
	}
	line := NewDelayLine(e, func(int) {})
	const depth = 1 << 14
	deep := NewEngine(1)
	for i := 0; i < depth; i++ {
		deep.At(Second+Time(i), fn)
	}
	// ticking returns an engine with n far events and a callback that
	// reschedules itself, so each Step fires through the held root.
	ticking := func(n int) *Engine {
		eng := NewEngine(1)
		for i := 0; i < n; i++ {
			eng.At(Second+Time(i), fn)
		}
		var tick func()
		tick = func() { eng.After(1, tick) }
		eng.After(1, tick)
		return eng
	}
	self, selfDeep := ticking(64), ticking(depth)
	cases := []struct {
		name string
		op   func()
	}{
		{"At+Step", func() {
			e.After(1, fn)
			e.Step()
		}},
		{"DelayLine.After+Step", func() {
			line.After(1, 7)
			e.Step()
		}},
		{"After.Cancel+Step", func() {
			e.After(1, fn).Cancel()
			e.After(2, fn)
			e.Step()
		}},
		{"Cancel mid-heap+Step at depth 16k", func() {
			mid := deep.queue[len(deep.queue)/2]
			t := mid.t
			Handle{mid, mid.gen}.Cancel()
			deep.At(t, fn) // keeps the depth
			deep.After(1, fn)
			deep.Step()
		}},
		{"self-rescheduling Step", func() { self.Step() }},
		{"self-rescheduling Step at depth 16k", func() { selfDeep.Step() }},
		{"Reserve+AtKey+Step", func() {
			k := e.Reserve(e.Now() + 1)
			e.After(1, fn)
			e.AtKey(k, fn)
			e.Step()
			e.Step()
		}},
		{"Move mid-heap+Step at depth 16k", func() {
			mid := deep.queue[len(deep.queue)/2]
			Handle{mid, mid.gen}.Move(mid.t + 1)
			deep.After(1, fn)
			deep.Step()
		}},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(1000, c.op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, got)
		}
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want the 64 far events", e.Pending())
	}
	if deep.Pending() != depth {
		t.Fatalf("deep Pending = %d, want the %d far events", deep.Pending(), depth)
	}
	if self.Pending() != 65 || selfDeep.Pending() != depth+1 {
		t.Fatalf("self-rescheduling Pending = %d and %d, want the far events and the tick", self.Pending(), selfDeep.Pending())
	}
	for _, eng := range []*Engine{e, deep, self, selfDeep} {
		checkHeapInvariants(t, eng)
	}
}

// Step leaves the fired event's spent entry in the heap's root while
// its callback runs. Whatever the callback does, the events fire in
// the same order as with a plain pop, and Pending and the heap counters
// leave the spent entry out, inside the callback and after it.
func TestEngineHeldRoot(t *testing.T) {
	var reserved Key // at 15, taken before a fires
	cases := []struct {
		name string
		// fire runs in the callback of event a, at time 10, with b (20)
		// and c (30) queued. at(t, name) schedules a named event, and
		// pending(n) checks Pending and the heap counters.
		fire    func(e *Engine, b Handle, at func(Time, byte), pending func(int))
		pending int    // after the Step that fires a
		order   string // every event fired, a included
	}{
		{"schedules nothing", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			pending(2)
		}, 2, "abc"},
		{"schedules ahead of every queued event", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			at(11, 'x')
			pending(3)
		}, 3, "axbc"},
		{"cancel then schedule", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			b.Cancel()
			pending(1)
			at(25, 'x')
			pending(2)
		}, 2, "axc"},
		{"Stop then schedule", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			e.Stop()
			at(10, 'x')
			pending(3)
		}, 3, "a"},
		{"refused At then a valid one", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			for _, bad := range []func(){
				func() { e.At(9, func() {}) },
				func() { e.At(11, nil) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Error("refused At did not panic")
						}
					}()
					bad()
				}()
				pending(2)
			}
			at(15, 'x')
			pending(3)
		}, 3, "axbc"},
		{"moves an event behind another", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			if !b.Move(35) {
				t.Fatal("Move of a queued event failed")
			}
			pending(2)
		}, 2, "acb"},
		{"queues a key reserved before it fired", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			e.AtKey(reserved, func() {})
			pending(3)
		}, 3, "abc"},
		{"nested Step", func(e *Engine, b Handle, at func(Time, byte), pending func(int)) {
			if !e.Step() {
				t.Fatal("nested Step fired nothing")
			}
			pending(1)
			at(21, 'x')
			pending(2)
		}, 2, "abxc"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			var order []byte
			named := func(name byte) func() {
				return func() {
					order = append(order, name)
					checkHeapInvariants(t, e)
				}
			}
			at := func(at Time, name byte) { e.At(at, named(name)) }
			pending := func(n int) {
				t.Helper()
				if got := e.Pending(); got != n {
					t.Fatalf("Pending = %d, want %d", got, n)
				}
				checkHeapInvariants(t, e)
			}
			var b Handle
			e.At(10, func() {
				order = append(order, 'a')
				c.fire(e, b, at, pending)
			})
			b = e.At(20, named('b'))
			e.At(30, named('c'))
			reserved = e.Reserve(15)
			if !e.Step() {
				t.Fatal("Step fired nothing")
			}
			pending(c.pending)
			if e.held {
				t.Fatal("the spent root outlived its callback")
			}
			e.RunAll()
			if string(order) != c.order {
				t.Fatalf("fired %q, want %q", order, c.order)
			}
			if e.Stopped() {
				pending(c.pending)
			} else {
				pending(0)
			}
		})
	}
}

// An event queued with AtKey fires where an At at the time of the
// Reserve would have put it, however late it joins the queue.
func TestEngineAtKeyKeepsReservedPlace(t *testing.T) {
	e := NewEngine(1)
	var order []byte
	named := func(name byte) func() { return func() { order = append(order, name) } }
	e.At(10, named('a'))
	k := e.Reserve(10)
	if k.Time() != 10 {
		t.Fatalf("key time = %v, want 10", k.Time())
	}
	e.At(10, named('c'))
	e.At(5, func() {
		order = append(order, 'x')
		e.AtKey(k, named('b'))
	})
	e.RunAll()
	if string(order) != "xabc" {
		t.Fatalf("fired %q, want xabc", order)
	}
	if hs := e.HeapStats(); hs.Pushes != 4 || hs.Pops != 4 {
		t.Fatalf("heap stats %+v, want 4 pushes and 4 pops", hs)
	}
}

// AtKey refuses a key that is already due: before the clock, or at it
// but ordered before the event that fired last. A key at the clock
// ordered after it is still valid.
func TestEngineAtKeyRefusesDueKeys(t *testing.T) {
	e := NewEngine(1)
	early := e.Reserve(5)
	before := e.Reserve(10)
	e.At(10, func() {})
	after := e.Reserve(10)
	e.Run(10)
	for _, k := range []Key{early, before} {
		if !panics(func() { e.AtKey(k, func() {}) }) {
			t.Errorf("AtKey(%+v) at now=%v after seq %d fired did not panic", k, e.Now(), e.nowSeq)
		}
	}
	if panics(func() { e.AtKey(after, func() {}) }) {
		t.Fatal("AtKey of a key ordered after the last event fired panicked")
	}
	if !panics(func() { e.AtKey(e.Reserve(11), nil) }) {
		t.Error("AtKey with a nil fn did not panic")
	}
	if !panics(func() { e.Reserve(9) }) {
		t.Error("Reserve in the past did not panic")
	}
	// A Run that moves the clock past the last event fired leaves any
	// key at the new instant valid.
	late := e.Reserve(20)
	e.Run(20)
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
	if panics(func() { e.AtKey(late, func() {}) }) {
		t.Fatal("AtKey of a key at the clock, after a Run with nothing due, panicked")
	}
	if !e.Step() || e.Now() != 20 {
		t.Fatalf("the keyed event did not fire at 20 (now %v)", e.Now())
	}
}

// Move re-keys an event in place: the events fire in exactly the order
// Cancel followed by At would give, the handle stays valid, and the
// heap counts a move instead of a cancel and a push.
func TestEngineMoveMatchesCancelAt(t *testing.T) {
	targets := []Time{20, 1, 45, 30, 30, 0}
	run := func(move bool) (string, enginestats.HeapStats) {
		e := NewEngine(1)
		var order []byte
		named := func(name byte) func() { return func() { order = append(order, name) } }
		var hs [6]Handle
		for i := range hs {
			hs[i] = e.At(Time(10*(i+1)), named('a'+byte(i)))
		}
		for i, to := range targets {
			if move {
				if !hs[i].Move(to) || !hs[i].Active() {
					t.Fatalf("Move of live event %c failed", 'a'+byte(i))
				}
			} else {
				hs[i].Cancel()
				hs[i] = e.At(to, named('a'+byte(i)))
			}
			checkHeapInvariants(t, e)
		}
		e.RunAll()
		for i, h := range hs {
			if h.Move(100) {
				t.Fatalf("Move of fired event %c reported success", 'a'+byte(i))
			}
		}
		if !panics(func() { e.At(e.Now()+1, func() {}).Move(e.Now() - 1) }) {
			t.Error("Move into the past did not panic")
		}
		return string(order), e.HeapStats()
	}
	got, moved := run(true)
	want, cancelled := run(false)
	if got != want {
		t.Fatalf("Move fired %q, Cancel+At %q", got, want)
	}
	if moved.Moves != 6 || moved.Cancels != 0 || moved.Pushes != 7 {
		t.Fatalf("Move heap stats %+v, want 6 moves, no cancels, 7 pushes", moved)
	}
	if cancelled.Moves != 0 || cancelled.Cancels != 6 {
		t.Fatalf("Cancel+At heap stats %+v, want 6 cancels and no moves", cancelled)
	}
}
