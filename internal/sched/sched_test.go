package sched

import (
	"testing"
	"testing/quick"

	"es2/internal/sim"
)

// scriptSource is a WorkSource driven by a next-chunk function.
type scriptSource struct {
	next   func() sim.Time
	onDone func()
	ran    sim.Time
	chunks int
}

func (s *scriptSource) NextChunk() sim.Time { return s.next() }
func (s *scriptSource) Ran(d sim.Time)      { s.ran += d }
func (s *scriptSource) ChunkDone() {
	s.chunks++
	if s.onDone != nil {
		s.onDone()
	}
}

// busySource always has work in fixed-size chunks.
func busySource(chunk sim.Time) *scriptSource {
	return &scriptSource{next: func() sim.Time { return chunk }}
}

// finiteSource supplies n chunks then blocks.
type finiteSource struct {
	scriptSource
	remaining int
	chunk     sim.Time
}

func newFiniteSource(n int, chunk sim.Time) *finiteSource {
	f := &finiteSource{remaining: n, chunk: chunk}
	f.next = func() sim.Time {
		if f.remaining <= 0 {
			return 0
		}
		return f.chunk
	}
	prev := f.onDone
	f.onDone = func() {
		f.remaining--
		if prev != nil {
			prev()
		}
	}
	return f
}

func newSched(nCores int) (*sim.Engine, *Scheduler) {
	eng := sim.NewEngine(1)
	return eng, New(eng, nCores, DefaultParams())
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	eng, s := newSched(1)
	src := newFiniteSource(5, 100*sim.Microsecond)
	th := s.NewThread("w", 0, 0, src)
	s.Wake(th)
	eng.RunAll()
	if src.chunks != 5 {
		t.Fatalf("chunks done = %d, want 5", src.chunks)
	}
	if src.ran != 500*sim.Microsecond {
		t.Fatalf("ran = %v, want 500us", src.ran)
	}
	if th.State() != Sleeping {
		t.Fatalf("state = %v, want sleeping", th.State())
	}
	if th.SumExec() != 500*sim.Microsecond {
		t.Fatalf("SumExec = %v", th.SumExec())
	}
}

func TestWakeResumesBlockedThread(t *testing.T) {
	eng, s := newSched(1)
	src := newFiniteSource(1, 10*sim.Microsecond)
	th := s.NewThread("w", 0, 0, src)
	s.Wake(th)
	eng.RunAll()
	if src.chunks != 1 {
		t.Fatalf("first run: chunks = %d", src.chunks)
	}
	// Give it more work and wake it again.
	src.remaining = 2
	s.Wake(th)
	eng.RunAll()
	if src.chunks != 3 {
		t.Fatalf("after rewake: chunks = %d, want 3", src.chunks)
	}
}

func TestWakeIdempotentOnRunnable(t *testing.T) {
	eng, s := newSched(1)
	a := s.NewThread("a", 0, 0, busySource(sim.Millisecond))
	b := s.NewThread("b", 0, 0, busySource(sim.Millisecond))
	s.Wake(a)
	s.Wake(b)
	s.Wake(b) // no-op: already runnable
	s.Wake(a) // no-op: already running
	eng.Run(10 * sim.Millisecond)
	if got := s.RunnableCount(0); got != 2 {
		t.Fatalf("RunnableCount = %d, want 2", got)
	}
}

func TestFairSharingEqualWeights(t *testing.T) {
	eng, s := newSched(1)
	a := busySource(50 * sim.Microsecond)
	b := busySource(50 * sim.Microsecond)
	ta := s.NewThread("a", 0, 0, a)
	tb := s.NewThread("b", 0, 0, b)
	s.Wake(ta)
	s.Wake(tb)
	eng.Run(2 * sim.Second)
	total := float64(a.ran + b.ran)
	shareA := float64(a.ran) / total
	if shareA < 0.45 || shareA > 0.55 {
		t.Fatalf("share A = %.3f, want ~0.5 (a=%v b=%v)", shareA, a.ran, b.ran)
	}
	// The busy core must not lose time: sum of work ~= elapsed.
	if total < 0.99*float64(2*sim.Second) {
		t.Fatalf("core lost time: total=%v of %v", sim.Time(total), 2*sim.Second)
	}
}

func TestWeightedSharing(t *testing.T) {
	eng, s := newSched(1)
	heavy := busySource(50 * sim.Microsecond)
	light := busySource(50 * sim.Microsecond)
	th := s.NewThread("heavy", 0, 2*NiceZeroWeight, heavy)
	tl := s.NewThread("light", 0, NiceZeroWeight, light)
	s.Wake(th)
	s.Wake(tl)
	eng.Run(3 * sim.Second)
	ratio := float64(heavy.ran) / float64(light.ran)
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("heavy/light ratio = %.2f, want ~2 (heavy=%v light=%v)", ratio, heavy.ran, light.ran)
	}
}

func TestTimeslicePreemption(t *testing.T) {
	eng, s := newSched(1)
	a := s.NewThread("a", 0, 0, busySource(100*sim.Millisecond))
	b := s.NewThread("b", 0, 0, busySource(100*sim.Millisecond))
	s.Wake(a)
	s.Wake(b)
	eng.Run(1 * sim.Second)
	// With 24ms latency and 2 runnable threads the slice is 12ms, so in
	// 1s we expect on the order of 80 context switches; certainly >10
	// and both threads must have run.
	if s.ContextSwitches < 10 {
		t.Fatalf("ContextSwitches = %d, want >= 10", s.ContextSwitches)
	}
	if a.SumExec() == 0 || b.SumExec() == 0 {
		t.Fatal("both threads must run despite long chunks")
	}
}

func TestNoPreemptionWhenAlone(t *testing.T) {
	eng, s := newSched(1)
	a := s.NewThread("a", 0, 0, busySource(sim.Millisecond))
	s.Wake(a)
	eng.Run(500 * sim.Millisecond)
	// One switch to start; slice expiry with empty rq must not switch.
	if s.ContextSwitches != 1 {
		t.Fatalf("ContextSwitches = %d, want 1", s.ContextSwitches)
	}
	if a.SumExec() < 499*sim.Millisecond {
		t.Fatalf("SumExec = %v, want ~500ms", a.SumExec())
	}
}

func TestWakeupPreemption(t *testing.T) {
	eng, s := newSched(1)
	hog := busySource(sim.Millisecond)
	thog := s.NewThread("hog", 0, 0, hog)
	s.Wake(thog)

	sleeper := newFiniteSource(1, 10*sim.Microsecond)
	tsleep := s.NewThread("sleeper", 0, 0, sleeper)

	var wokeAt, ranAt sim.Time
	orig := sleeper.onDone
	sleeper.onDone = func() {
		if ranAt == 0 {
			ranAt = eng.Now()
		}
		orig()
	}

	// Let the hog build up vruntime, then wake the sleeper: it should
	// preempt quickly rather than wait for the hog's slice to end.
	eng.After(100*sim.Millisecond, func() {
		wokeAt = eng.Now()
		s.Wake(tsleep)
	})
	eng.Run(200 * sim.Millisecond)
	if ranAt == 0 {
		t.Fatal("sleeper never ran")
	}
	delay := ranAt - wokeAt
	if delay > 2*sim.Millisecond {
		t.Fatalf("wakeup-to-run delay = %v, want < 2ms (wakeup preemption)", delay)
	}
}

func TestSchedNotifiers(t *testing.T) {
	eng, s := newSched(1)
	var log []string
	a := s.NewThread("a", 0, 0, busySource(5*sim.Millisecond))
	b := s.NewThread("b", 0, 0, busySource(5*sim.Millisecond))
	a.SchedIn = func(core int) { log = append(log, "a-in") }
	a.SchedOut = func() { log = append(log, "a-out") }
	b.SchedIn = func(core int) { log = append(log, "b-in") }
	b.SchedOut = func() { log = append(log, "b-out") }
	s.Wake(a)
	s.Wake(b)
	eng.Run(100 * sim.Millisecond)
	if len(log) < 4 {
		t.Fatalf("too few notifier events: %v", log)
	}
	// Validate alternation: an X-in must be followed by X-out before
	// the next X-in, and at most one thread is "in" at a time.
	online := ""
	for _, ev := range log {
		switch ev {
		case "a-in", "b-in":
			if online != "" {
				t.Fatalf("overlapping online threads in %v", log)
			}
			online = ev[:1]
		case "a-out", "b-out":
			if online != ev[:1] {
				t.Fatalf("out without matching in: %v", log)
			}
			online = ""
		}
	}
}

func TestRequeryCutsChunkShort(t *testing.T) {
	eng, s := newSched(1)
	phase := 0
	var src *scriptSource
	src = &scriptSource{next: func() sim.Time {
		switch phase {
		case 0:
			return 10 * sim.Millisecond // long task
		case 1:
			return 100 * sim.Microsecond // short "interrupt handler"
		default:
			return 0
		}
	}}
	th := s.NewThread("v", 0, 0, src)
	s.Wake(th)
	// 1ms in, an interrupt arrives: switch the source to the handler and
	// requery.
	var handlerDone sim.Time
	src.onDone = func() {
		if phase == 1 {
			handlerDone = eng.Now()
			phase = 2
		}
	}
	eng.After(sim.Millisecond, func() {
		phase = 1
		s.Requery(th)
	})
	eng.Run(50 * sim.Millisecond)
	if handlerDone == 0 {
		t.Fatal("handler chunk never completed")
	}
	if handlerDone != sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("handler done at %v, want 1.1ms (requery must cut the long chunk)", handlerDone)
	}
	// Partial progress of the long chunk must be charged.
	if src.ran < sim.Millisecond {
		t.Fatalf("ran = %v, want >= 1ms", src.ran)
	}
}

func TestRequeryOnRunnableIsNoop(t *testing.T) {
	eng, s := newSched(1)
	a := s.NewThread("a", 0, 0, busySource(sim.Millisecond))
	b := s.NewThread("b", 0, 0, busySource(sim.Millisecond))
	s.Wake(a)
	s.Wake(b)
	eng.Run(sim.Millisecond / 2)
	// One of them is runnable (not running); Requery must not disturb.
	var runnable *Thread
	if a.State() == Runnable {
		runnable = a
	} else {
		runnable = b
	}
	s.Requery(runnable)
	if runnable.State() != Runnable {
		t.Fatalf("state = %v, want runnable", runnable.State())
	}
}

func TestMultiCoreIndependence(t *testing.T) {
	eng, s := newSched(2)
	a := busySource(time1ms())
	b := busySource(time1ms())
	ta := s.NewThread("a", 0, 0, a)
	tb := s.NewThread("b", 1, 0, b)
	s.Wake(ta)
	s.Wake(tb)
	eng.Run(sim.Second)
	// Each thread owns a whole core.
	if a.ran < 999*sim.Millisecond || b.ran < 999*sim.Millisecond {
		t.Fatalf("per-core work: a=%v b=%v, want ~1s each", a.ran, b.ran)
	}
	if ta.Core() != 0 || tb.Core() != 1 {
		t.Fatal("threads must stay pinned")
	}
}

func time1ms() sim.Time { return sim.Millisecond }

func TestManyThreadsNoStarvation(t *testing.T) {
	eng, s := newSched(1)
	const n = 8
	srcs := make([]*scriptSource, n)
	for i := 0; i < n; i++ {
		srcs[i] = busySource(200 * sim.Microsecond)
		s.Wake(s.NewThread("t", 0, 0, srcs[i]))
	}
	eng.Run(4 * sim.Second)
	for i, src := range srcs {
		share := float64(src.ran) / float64(4*sim.Second)
		if share < 0.08 || share > 0.18 {
			t.Fatalf("thread %d share = %.3f, want ~0.125", i, share)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, sim.Time, sim.Time) {
		eng, s := newSched(2)
		a := busySource(73 * sim.Microsecond)
		b := busySource(131 * sim.Microsecond)
		c := newFiniteSource(1000, 97*sim.Microsecond)
		ta := s.NewThread("a", 0, 0, a)
		tb := s.NewThread("b", 0, 0, b)
		tc := s.NewThread("c", 1, 0, c)
		s.Wake(ta)
		s.Wake(tb)
		s.Wake(tc)
		// Periodic requery noise.
		var tick func()
		tick = func() {
			s.Requery(ta)
			if eng.Now() < sim.Second {
				eng.After(777*sim.Microsecond, tick)
			}
		}
		eng.After(sim.Millisecond, tick)
		eng.Run(sim.Second)
		return s.ContextSwitches, a.ran, b.ran
	}
	cs1, a1, b1 := run()
	cs2, a2, b2 := run()
	if cs1 != cs2 || a1 != a2 || b1 != b2 {
		t.Fatalf("replay diverged: (%d,%v,%v) vs (%d,%v,%v)", cs1, a1, b1, cs2, a2, b2)
	}
}

func TestBlockedThreadGetsWakeupPlacement(t *testing.T) {
	eng, s := newSched(1)
	hog := busySource(sim.Millisecond)
	thog := s.NewThread("hog", 0, 0, hog)
	s.Wake(thog)
	eng.Run(5 * sim.Second)
	// A thread that slept for 5s must not get 5s of catch-up credit: its
	// vruntime is clamped near the core's min_vruntime.
	late := newFiniteSource(1, 10*sim.Microsecond)
	tlate := s.NewThread("late", 0, 0, late)
	s.Wake(tlate)
	if diff := thog.Vruntime() - tlate.Vruntime(); diff > int64(2*DefaultParams().Latency) {
		t.Fatalf("sleeper got %v of credit, want bounded by ~latency", sim.Time(diff))
	}
}

func TestNewThreadValidation(t *testing.T) {
	_, s := newSched(1)
	mustPanic(t, func() { s.NewThread("x", 5, 0, busySource(1)) })
	mustPanic(t, func() { s.NewThread("x", 0, 0, nil) })
	mustPanic(t, func() { New(sim.NewEngine(1), 0, DefaultParams()) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestStateString(t *testing.T) {
	if Sleeping.String() != "sleeping" || Runnable.String() != "runnable" || Running.String() != "running" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should format")
	}
}

// Property: on a fully loaded core, consumed CPU time equals elapsed
// wall time (no time lost or double-charged) for any mix of chunk
// sizes and weights, and every thread makes progress.
func TestSchedConservationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		eng := sim.NewEngine(3)
		s := New(eng, 1, DefaultParams())
		srcs := make([]*scriptSource, len(raw))
		for i, r := range raw {
			chunk := sim.Time(10+int(r)%200) * sim.Microsecond
			srcs[i] = busySource(chunk)
			weight := int64(0)
			if r%3 == 0 {
				weight = 2 * NiceZeroWeight
			}
			s.Wake(s.NewThread("t", 0, weight, srcs[i]))
		}
		const horizon = 500 * sim.Millisecond
		eng.Run(horizon)
		var total sim.Time
		for _, src := range srcs {
			if src.ran == 0 {
				return false // starvation
			}
			total += src.ran
		}
		// Allow the in-flight chunk's uncharged remainder.
		return total <= horizon && total >= horizon-sim.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oneChunkSource has one 1µs chunk of work per wakeup.
type oneChunkSource struct{ pending bool }

func (o *oneChunkSource) NextChunk() sim.Time {
	if o.pending {
		return sim.Microsecond
	}
	return 0
}
func (o *oneChunkSource) Ran(sim.Time) {}
func (o *oneChunkSource) ChunkDone()   { o.pending = false }

// Arming chunk and slice timers allocates nothing: the timer callbacks
// are bound once per core, and the engine recycles their events.
func TestTimerArmingAllocs(t *testing.T) {
	eng, s := newSched(1)
	src := &oneChunkSource{}
	th := s.NewThread("w", 0, 0, src)
	wake := testing.AllocsPerRun(1000, func() {
		src.pending = true
		s.Wake(th)
		eng.RunAll()
	})
	if wake != 0 {
		t.Errorf("wake -> dispatch -> block: %v allocs/op, want 0", wake)
	}

	eng = sim.NewEngine(1)
	s = New(eng, 1, Params{Latency: 20 * sim.Microsecond, MinGranularity: 10 * sim.Microsecond})
	for _, name := range []string{"a", "b"} {
		s.Wake(s.NewThread(name, 0, 0, busySource(sim.Millisecond)))
	}
	preempt := testing.AllocsPerRun(1000, func() {
		for target := s.ContextSwitches + 1; s.ContextSwitches < target; {
			eng.Step()
		}
	})
	if preempt != 0 {
		t.Errorf("preemption: %v allocs/op, want 0", preempt)
	}

	eng, s = newSched(1)
	th = s.NewThread("w", 0, 0, busySource(sim.Millisecond))
	s.Wake(th)
	requery := testing.AllocsPerRun(1000, func() { s.Requery(th) })
	if requery != 0 {
		t.Errorf("requery: %v allocs/op, want 0", requery)
	}
}

// stepWhile steps eng while cond holds, and fails if the queue drains
// or a simulated second passes first.
func stepWhile(t *testing.T, eng *sim.Engine, cond func() bool) {
	t.Helper()
	for cond() {
		if !eng.Step() || eng.Now() > sim.Second {
			t.Fatalf("at %v: the condition still holds with the queue drained or a second gone", eng.Now())
		}
	}
}

// A slice timer joins the event queue only once an armed chunk reaches
// its expiry: while a thread runs chunks that end before it, only the
// chunk timer is queued. The chunk that crosses the expiry queues the
// slice timer, and the thread is preempted at exactly the expiry.
func TestSliceTimerQueuedWhenReached(t *testing.T) {
	eng, s := newSched(1)
	c := s.cores[0]
	a := s.NewThread("a", 0, 0, busySource(100*sim.Microsecond))
	var out sim.Time
	a.SchedOut = func() { out = eng.Now() }
	s.Wake(a)
	s.Wake(s.NewThread("b", 0, 0, busySource(sim.Millisecond)))
	expiry := c.sliceKey.Time()
	if expiry <= 0 || !c.slicePending {
		t.Fatalf("no slice reserved at dispatch (expiry %v)", expiry)
	}
	chunks := 0
	for ; c.chunkEnd < expiry; chunks++ {
		if eng.Pending() != 1 || c.sliceEvt.Active() {
			t.Fatalf("at %v, chunk ending %v: Pending = %d, slice queued %t; want only the chunk timer",
				eng.Now(), c.chunkEnd, eng.Pending(), c.sliceEvt.Active())
		}
		eng.Step()
	}
	if chunks < 100 {
		t.Fatalf("%d chunks ran before the expiry %v, want about 120", chunks, expiry)
	}
	if eng.Pending() != 2 || !c.sliceEvt.Active() || c.slicePending {
		t.Fatalf("chunk ending %v crosses the expiry %v, but Pending = %d and slice queued %t",
			c.chunkEnd, expiry, eng.Pending(), c.sliceEvt.Active())
	}
	stepWhile(t, eng, func() bool { return a.State() == Running })
	if out != expiry {
		t.Fatalf("preempted at %v, want the slice expiry %v", out, expiry)
	}
	if hs := eng.HeapStats(); hs.Cancels != 1 {
		t.Fatalf("%d cancels, want 1: the crossing chunk's timer, cut by the preemption", hs.Cancels)
	}
}

// An event scheduled at exactly the slice expiry, after the slice was
// reserved but before the chunk that ends at the expiry is armed, fires
// after the slice timer: the timer keeps the place it took when the
// slice opened. queueSlice must queue it for a chunk that ends exactly
// at the expiry, or it would fire late.
func TestSliceTimerTieKeepsItsPlace(t *testing.T) {
	eng, s := newSched(1)
	c := s.cores[0]
	const chunk = 100 * sim.Microsecond
	var a *Thread
	var tie, out sim.Time
	tieFired := false
	a = s.NewThread("a", 0, 0, &scriptSource{next: func() sim.Time {
		left := c.sliceKey.Time() - eng.Now()
		if c.cur != a || left > chunk {
			return chunk
		}
		if tie == 0 {
			tie = c.sliceKey.Time()
			eng.At(tie, func() {
				tieFired = true
				if a.State() == Running {
					t.Errorf("the event at the expiry %v fired before the slice timer", tie)
				}
			})
		}
		return left
	}})
	a.SchedOut = func() { out = eng.Now() }
	s.Wake(a)
	s.Wake(s.NewThread("b", 0, 0, busySource(sim.Millisecond)))
	stepWhile(t, eng, func() bool { return !tieFired })
	if out != tie {
		t.Fatalf("preempted at %v, want the expiry %v", out, tie)
	}
}

// A wakeup that shortens the slice below the end of the armed chunk
// queues the slice timer at once, at the new expiry, and the thread is
// preempted there.
func TestResizeSliceBelowArmedChunk(t *testing.T) {
	eng, s := newSched(1)
	c := s.cores[0]
	a := s.NewThread("a", 0, 0, busySource(20*sim.Millisecond))
	var out sim.Time
	a.SchedOut = func() { out = eng.Now() }
	s.Wake(a)
	// Alone, a's slice is 24ms ±10%, past its 20ms chunk: not queued.
	if !c.slicePending || c.sliceEvt.Active() || c.sliceKey.Time() <= c.chunkEnd {
		t.Fatalf("slice expiry %v, chunk end %v: want a reserved slice past the chunk", c.sliceKey.Time(), c.chunkEnd)
	}
	eng.Run(sim.Millisecond)
	s.Wake(s.NewThread("b", 0, 0, busySource(sim.Millisecond)))
	expiry := c.sliceKey.Time()
	if expiry >= c.chunkEnd || c.slicePending || !c.sliceEvt.Active() || eng.Pending() != 2 {
		t.Fatalf("after the wakeup: expiry %v, chunk end %v, slice queued %t, Pending %d; want the slice queued below the chunk end",
			expiry, c.chunkEnd, c.sliceEvt.Active(), eng.Pending())
	}
	stepWhile(t, eng, func() bool { return a.State() == Running })
	if out != expiry {
		t.Fatalf("preempted at %v, want the resized expiry %v", out, expiry)
	}
}

// A requery re-keys the live chunk timer in place: at the instant the
// chunk was armed, it leaves Pending unchanged and counts a move, not
// a cancel and a push.
func TestRequeryMovesChunkTimer(t *testing.T) {
	eng, s := newSched(1)
	c := s.cores[0]
	a := s.NewThread("a", 0, 0, busySource(sim.Millisecond))
	s.Wake(a)
	h, pending, before := c.chunkEvt, eng.Pending(), eng.HeapStats()
	s.Requery(a)
	after := eng.HeapStats()
	if eng.Pending() != pending || c.chunkEvt != h || !h.Active() {
		t.Fatalf("Pending %d → %d, chunk handle kept %t: want the same timer, still queued", pending, eng.Pending(), c.chunkEvt == h)
	}
	if after.Moves != before.Moves+1 || after.Cancels != before.Cancels || after.Pushes != before.Pushes {
		t.Fatalf("heap stats %+v → %+v, want one move and no cancel or push", before, after)
	}
}
