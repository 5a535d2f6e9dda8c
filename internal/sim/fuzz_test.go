package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
)

// refQueue is the reference FuzzEngineQueue checks the engine against:
// lazy cancellation over a slice sorted by (time, seq). A cancelled
// entry keeps its place until it reaches the front, where due drops
// it; a moved entry is taken out and put back under its new key. It
// shares neither code nor layout with the engine's heap.
type refQueue struct {
	now       Time
	seq       uint64
	last      refKey // the key of the last event fired
	entries   []refEntry
	queued    []bool // by event id: still in entries
	cancelled []bool // by event id
	live      int    // queued and not cancelled
}

// refKey is a place in the reference's firing order.
type refKey struct {
	t   Time
	seq uint64
}

func (k refKey) before(o refKey) bool { return k.t < o.t || k.t == o.t && k.seq < o.seq }

type refEntry struct {
	refKey
	id int
}

func (q *refQueue) active(id int) bool { return q.queued[id] && !q.cancelled[id] }

// at schedules the next event id at t.
func (q *refQueue) at(t Time) { q.atKey(q.reserve(t)) }

// reserve takes the key the next at would use.
func (q *refQueue) reserve(t Time) refKey {
	k := refKey{t, q.seq}
	q.seq++
	return k
}

// keyDue reports whether an event under key k should already have
// fired: k lies before the clock, or before the last event fired.
func (q *refQueue) keyDue(k refKey) bool { return k.t < q.now || k.before(q.last) }

// atKey schedules the next event id under key k.
func (q *refQueue) atKey(k refKey) {
	q.insert(refEntry{k, len(q.queued)})
	q.queued = append(q.queued, true)
	q.cancelled = append(q.cancelled, false)
	q.live++
}

func (q *refQueue) insert(e refEntry) {
	i := sort.Search(len(q.entries), func(i int) bool { return e.before(q.entries[i].refKey) })
	q.entries = slices.Insert(q.entries, i, e)
}

// move re-keys live event id to t under a fresh sequence number and
// reports whether it was live.
func (q *refQueue) move(id int, t Time) bool {
	if !q.active(id) {
		return false
	}
	i := slices.IndexFunc(q.entries, func(e refEntry) bool { return e.id == id })
	q.entries = slices.Delete(q.entries, i, i+1)
	q.insert(refEntry{q.reserve(t), id})
	return true
}

func (q *refQueue) cancel(id int) {
	if q.active(id) {
		q.cancelled[id] = true
		q.live--
	}
}

// due drops cancelled entries at the front and reports whether a live
// one is due by until.
func (q *refQueue) due(until Time) bool {
	for len(q.entries) > 0 && q.cancelled[q.entries[0].id] {
		q.queued[q.entries[0].id] = false
		q.entries = q.entries[1:]
	}
	return len(q.entries) > 0 && q.entries[0].t <= until
}

// step fires the earliest live event due by until and returns its id,
// or -1 if there is none.
func (q *refQueue) step(until Time) int {
	if !q.due(until) {
		return -1
	}
	e := q.entries[0]
	q.entries = q.entries[1:]
	q.queued[e.id] = false
	q.live--
	q.now, q.last = e.t, e.refKey
	return e.id
}

// endRun completes Run(until): it reports false if a live event is
// still due, and advances the clock to until.
func (q *refQueue) endRun(until Time) bool {
	if q.due(until) {
		return false
	}
	q.now = max(q.now, until)
	return true
}

// The op codes of FuzzEngineQueue's input: each op is an op byte and a
// 16-bit big-endian argument. The op byte's low seven bits, taken mod
// numOps, pick the op. Its high bit (nested) defers the op to the next
// event that fires: the op runs inside that event's callback, while the
// event's spent entry still holds the heap's root.
const (
	opAt      = 0 // and 1: After(arg % 4096), so the queue builds up
	opCancel  = 2 // Cancel of handle arg % issued, stale ones included
	opStep    = 3
	opRun     = 4 // Run(now + arg%64)
	opRefuse  = 5 // an At that must panic; see refuse
	opReserve = 6 // Reserve(now + arg%4096)
	opAtKey   = 7 // AtKey of key arg % reserved; one already due must panic
	opMove    = 8 // Move of a handle, stale ones included; see moveAhead
	numOps    = 9
	nested    = 0x80
)

// maxOps bounds one input: the per-op check of every handle issued is
// quadratic in the op count, and the fuzzer grows inputs to megabytes.
const maxOps = 1024

// queueOps draws n ops for the seed corpus. At outweighs Step and Run,
// so the heap grows about 200 deep over maxOps ops, and most cancels
// pick one of the last 256 handles issued, so they remove live events
// from the middle of the heap. With nest, a third of the ops run
// inside a firing callback and a few are refused Ats. With keyed, a
// fifth of the ops turn into Reserves, AtKeys and Moves, the Reserves
// and Moves to one of the eight instants from the clock on, so that
// they tie with each other.
func queueOps(seed uint64, n int, nest, keyed bool) []byte {
	r := NewRand(seed)
	b := make([]byte, 0, 3*n)
	issued := 0
	for i := 0; i < n; i++ {
		op, arg := byte(opAt), r.Intn(4096)
		switch p := r.Intn(100); {
		case p < 55:
			issued++
		case p < 77:
			op, arg = opCancel, r.Intn(1<<16)
			if issued > 0 {
				arg = issued - 1 - r.Intn(min(issued, 256))
			}
		case p < 97:
			op = opStep
		default:
			op, arg = opRun, r.Intn(64)
		}
		if keyed && r.Intn(5) == 0 {
			switch r.Intn(3) {
			case 0:
				op, arg = opReserve, r.Intn(8)
			case 1:
				op, arg = opAtKey, r.Intn(1<<16)
			default:
				op, arg = opMove, r.Intn(1<<16)&^(moveAhead-1)|r.Intn(8)
			}
		}
		if nest {
			if r.Intn(100) < 3 {
				op = opRefuse
			}
			if r.Intn(3) == 0 {
				op |= nested
			}
		}
		b = append(b, op, byte(arg>>8), byte(arg))
	}
	return b
}

// encode lays out (op, arg) pairs as FuzzEngineQueue's input.
func encode(ops ...[2]int) []byte {
	b := make([]byte, 0, 3*len(ops))
	for _, o := range ops {
		b = append(b, byte(o[0]), byte(o[1]>>8), byte(o[1]))
	}
	return b
}

// moveAhead splits opMove's argument: Move handle arg/moveAhead %
// issued to now + arg%moveAhead, or, when that handle is live and the
// clock allows, into the past, where it must panic, if arg%moveAhead is
// moveAhead-1.
const moveAhead = 64

// keys are the keys FuzzEngineQueue reserved, on the engine and on the
// reference, and whether each has been queued.
type keys struct {
	engine []Key
	ref    []refKey
	queued []bool
}

// refuse calls At with a deadline in the past, when the clock allows
// one and arg is even, and with a nil fn otherwise. It reports whether
// the call panicked, as both must.
func refuse(e *Engine, arg int) (panicked bool) {
	return panics(func() {
		if now := e.Now(); now > 0 && arg%2 == 0 {
			e.At(now-1-Time(arg/2)%now, func() {})
		} else {
			e.After(Time(arg%4096), nil)
		}
	})
}

// panics reports whether fn panicked.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// FuzzEngineQueue runs a stream of At, Cancel, Step, Run, refused At,
// Reserve, AtKey and Move ops against the engine and against refQueue,
// in lockstep: each callback that fires steps the reference, and runs
// the nested ops queued for it on both. After every op, at the top
// level and inside callbacks alike, the two must agree on the events
// fired so far and their order, on every handle's Active, and on the
// clock, Pending must equal the live count, and the heap must be in
// order with its counters balanced. Every reserved key must equal the
// reference's, an AtKey of a key that is already due and a Move into
// the past must panic, and a Move must report whether its event was
// live. Between top-level ops no spent root may be held.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{})
	// Ties at one instant, a cancel of the first, a stale cancel after
	// it fired, and a Step on an empty queue.
	f.Add([]byte{
		opAt, 0, 10, opAt, 0, 10, opAt, 0, 5, opCancel, 0, 0,
		opStep, 0, 0, opStep, 0, 0, opCancel, 0, 2, opCancel, 0, 1,
		opStep, 0, 0, opStep, 0, 0,
	})
	// A Run horizon on a tied instant: both tied events fire and the
	// later one waits. Then cancels of handles whose events were reused.
	f.Add([]byte{
		opAt, 0, 3, opAt, 0, 3, opAt, 0, 9, opRun, 0, 3, opCancel, 0, 2,
		opAt, 0, 1, opAt, 0, 1, opCancel, 0, 0, opCancel, 0, 4, opRun, 1, 255,
	})
	f.Add(queueOps(1, maxOps, false, false))
	f.Add(queueOps(2, maxOps, false, false))
	// A callback that schedules nothing: it cancels the only other
	// event, so its spent root must go when it returns.
	f.Add([]byte{
		opAt, 0, 10, opAt, 0, 20, nested | opCancel, 0, 1,
		opStep, 0, 0, opStep, 0, 0,
	})
	// A callback that schedules ahead of every queued event and then
	// behind it, cancels itself, cancels its first new event, and
	// schedules once more at its own instant.
	f.Add([]byte{
		opAt, 0, 10, opAt, 0, 20, nested | opAt, 0, 1, nested | opAt, 0, 30,
		nested | opCancel, 0, 0, nested | opCancel, 0, 2, nested | opAt, 0, 0,
		opStep, 0, 0, opRun, 0, 63, opStep, 0, 0, opStep, 0, 0,
	})
	// Refused Ats (in the past, then a nil fn) before a valid one,
	// inside a callback and at the top level.
	f.Add([]byte{
		opAt, 0, 10, nested | opRefuse, 0, 0, nested | opRefuse, 0, 1,
		nested | opAt, 0, 5, opStep, 0, 0, opRefuse, 0, 2, opStep, 0, 0,
	})
	// A nested Step and a nested Run: each drops the spent root before
	// it fires anything.
	f.Add([]byte{
		opAt, 0, 10, opAt, 0, 20, opAt, 0, 30, nested | opStep, 0, 0,
		nested | opAt, 0, 0, nested | opRun, 0, 15, opStep, 0, 0, opStep, 0, 0,
	})
	f.Add(queueOps(3, maxOps, true, false))
	f.Add(queueOps(4, maxOps, true, false))
	// A key reserved at 10 between two Ats at 10 fires between them,
	// though it is queued after both; a key reserved at 5 is refused
	// once the clock passes 5, and one reserved at 10 once a later
	// event at 10 fired.
	f.Add([]byte{
		opAt, 0, 10, opReserve, 0, 10, opAt, 0, 10, opReserve, 0, 5,
		opReserve, 0, 10, opAt, 0, 10, opAtKey, 0, 0, opRun, 0, 6,
		opAtKey, 0, 1, opStep, 0, 0, opStep, 0, 0, opStep, 0, 0,
		opStep, 0, 0, opAtKey, 0, 2, opStep, 0, 0,
	})
	// Moves of events at 10, 20, ..., 50: the first onto 20, where it
	// now follows the second; the last ahead of every other entry and
	// the third behind them. Then a Move of a fired handle and one of a
	// live handle into the past.
	f.Add(encode(
		[2]int{opAt, 10}, [2]int{opAt, 20}, [2]int{opAt, 30}, [2]int{opAt, 40}, [2]int{opAt, 50},
		[2]int{opMove, 0*moveAhead + 20}, [2]int{opMove, 4*moveAhead + 1}, [2]int{opMove, 2*moveAhead + 62},
		[2]int{opStep, 0}, [2]int{opMove, 4*moveAhead + 5}, [2]int{opMove, 2*moveAhead + moveAhead - 1},
		[2]int{opRun, 63}, [2]int{opRun, 63},
	))
	// Inside a callback: a Move ahead of every queued event, an AtKey
	// of a key reserved before the callback, and a Reserve and AtKey at
	// the callback's own instant.
	f.Add(encode(
		[2]int{opAt, 10}, [2]int{opAt, 20}, [2]int{opAt, 30}, [2]int{opReserve, 15},
		[2]int{nested | opMove, 2*moveAhead + 1}, [2]int{nested | opAtKey, 0},
		[2]int{nested | opReserve, 0}, [2]int{nested | opAtKey, 1},
		[2]int{opStep, 0}, [2]int{opStep, 0}, [2]int{opStep, 0}, [2]int{opStep, 0}, [2]int{opStep, 0},
	))
	f.Add(queueOps(5, maxOps, false, true))
	f.Add(queueOps(6, maxOps, true, true))

	f.Fuzz(func(t *testing.T, ops []byte) {
		e := NewEngine(1)
		var ref refQueue
		var handles []Handle
		var ks keys
		var fired, want []int
		var inside []byte            // nested ops for the next callback
		limit := Time(math.MaxInt64) // horizon of the innermost Step or Run
		check := func() {
			if !slices.Equal(fired, want) {
				t.Fatalf("engine fired %v, reference %v", fired, want)
			}
			for id, h := range handles {
				if h.Active() != ref.active(id) {
					t.Fatalf("event %d: Active = %t, reference %t", id, h.Active(), ref.active(id))
				}
			}
			if e.Pending() != ref.live {
				t.Fatalf("Pending = %d, want the %d live events", e.Pending(), ref.live)
			}
			if e.Now() != ref.now {
				t.Fatalf("Now = %v, reference %v", e.Now(), ref.now)
			}
			checkHeapInvariants(t, e)
		}
		var do func(op byte, arg int)
		fire := func(id int) func() {
			return func() {
				fired = append(fired, id)
				want = append(want, ref.step(limit))
				if len(inside) == 0 {
					return
				}
				check()
				ops := inside
				inside = nil
				for ; len(ops) >= 3; ops = ops[3:] {
					do(ops[0], int(ops[1])<<8|int(ops[2]))
					check()
				}
			}
		}
		do = func(op byte, arg int) {
			switch op % nested % numOps {
			case opAt, opAt + 1:
				id := len(handles)
				d := Time(arg % 4096)
				handles = append(handles, e.After(d, fire(id)))
				ref.at(ref.now + d)
			case opCancel:
				if len(handles) > 0 {
					id := arg % len(handles)
					handles[id].Cancel()
					ref.cancel(id)
				}
			case opStep:
				outer := limit
				limit = math.MaxInt64
				if !e.Step() && ref.due(limit) {
					t.Fatal("Step fired nothing with a live event queued")
				}
				limit = outer
			case opRun:
				until := ref.now + Time(arg%64)
				outer := limit
				limit = until
				e.Run(until)
				limit = outer
				if !ref.endRun(until) {
					t.Fatalf("Run(%v) returned with a live event due", until)
				}
			case opRefuse:
				if !refuse(e, arg) {
					t.Fatalf("refused At (arg %d) did not panic", arg)
				}
			case opReserve:
				d := Time(arg % 4096)
				k, rk := e.Reserve(e.Now()+d), ref.reserve(ref.now+d)
				if k.t != rk.t || k.seq != rk.seq || k.Time() != rk.t {
					t.Fatalf("Reserve = %+v, reference %+v", k, rk)
				}
				ks.engine, ks.ref = append(ks.engine, k), append(ks.ref, rk)
				ks.queued = append(ks.queued, false)
			case opAtKey:
				if len(ks.ref) == 0 {
					break
				}
				i := arg % len(ks.ref)
				switch {
				case ks.queued[i]:
				case ref.keyDue(ks.ref[i]):
					if !panics(func() { e.AtKey(ks.engine[i], func() {}) }) {
						t.Fatalf("AtKey of key %+v, already due at %v, did not panic", ks.ref[i], ref.now)
					}
				default:
					ks.queued[i] = true
					handles = append(handles, e.AtKey(ks.engine[i], fire(len(handles))))
					ref.atKey(ks.ref[i])
				}
			case opMove:
				if len(handles) == 0 {
					break
				}
				id := arg / moveAhead % len(handles)
				if d := arg % moveAhead; d == moveAhead-1 && ref.active(id) && ref.now > 0 {
					if !panics(func() { handles[id].Move(e.Now() - 1) }) {
						t.Fatalf("Move of event %d into the past did not panic", id)
					}
				} else if got, want := handles[id].Move(e.Now()+Time(d)), ref.move(id, ref.now+Time(d)); got != want {
					t.Fatalf("Move of event %d = %t, reference %t", id, got, want)
				}
			}
		}
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			if ops[0]&nested != 0 {
				inside = append(inside, ops[:3]...)
				continue
			}
			do(ops[0], int(ops[1])<<8|int(ops[2]))
			check()
			if e.held {
				t.Fatal("a spent root outlived its callback")
			}
		}
	})
}

// The op codes of FuzzDelayLine's input, in the same 3-byte layout as
// FuzzEngineQueue's (op byte taken mod 5).
const (
	lineSend   = 0 // and 1: send on line arg%numLines, (arg>>2)%64 past its last deadline
	lineAt     = 2 // a plain At(now + arg%4096)
	lineCancel = 3 // Cancel of plain event arg % issued
	lineStep   = 4
	numLines   = 3
)

// lineOps draws n ops for FuzzDelayLine's seed corpus: mostly sends,
// with enough plain events, cancels and steps to interleave them.
func lineOps(seed uint64, n int) []byte {
	r := NewRand(seed)
	b := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		op, arg := byte(lineSend), r.Intn(1<<16)
		switch p := r.Intn(100); {
		case p < 40:
		case p < 60:
			op = lineAt
		case p < 70:
			op = lineCancel
		default:
			op = lineStep
		}
		b = append(b, op, byte(arg>>8), byte(arg))
	}
	return b
}

// FuzzDelayLine runs a stream of sends on several delay lines,
// interleaved with plain At events, Cancels and Steps, on one engine,
// and the same stream with a closure per send on another. After every
// op the two must agree on the events fired so far and their order,
// on the line each value came from, on the clock, and on the values
// waiting: a line queues only its head, so Pending plus the values
// behind each line's head must equal the closures' Pending, and the
// queue must hold exactly the head's event of each non-empty line.
func FuzzDelayLine(f *testing.F) {
	f.Add([]byte{})
	// Ties: two lines and a plain event at one instant, a send at the
	// current instant from a later op, and a cancelled plain event.
	f.Add([]byte{
		lineSend, 0, 0, lineSend, 0, 1, lineAt, 0, 0, lineSend, 0, 4,
		lineAt, 0, 0, lineCancel, 0, 1, lineStep, 0, 0, lineSend, 0, 0,
		lineStep, 0, 0, lineStep, 0, 0, lineStep, 0, 0, lineStep, 0, 0,
	})
	f.Add(lineOps(1, maxOps))
	f.Add(lineOps(2, maxOps))

	f.Fuzz(func(t *testing.T, ops []byte) {
		e, ref := NewEngine(1), NewEngine(1)
		var fired, want []int
		var sentOn []int // by op id: the line a value was sent on, or -1
		var lines [numLines]*DelayLine[int]
		var last [numLines]Time
		for i := range lines {
			lines[i] = NewDelayLine(e, func(id int) {
				if sentOn[id] != i {
					t.Fatalf("value %d delivered by line %d, sent on %d", id, i, sentOn[id])
				}
				fired = append(fired, id)
			})
		}
		var handles, refHandles []Handle
		if len(ops) > 3*maxOps {
			ops = ops[:3*maxOps]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			arg := int(ops[1])<<8 | int(ops[2])
			id := len(sentOn)
			sentOn = append(sentOn, -1)
			switch ops[0] % 5 {
			case lineSend, lineSend + 1:
				l := arg % numLines
				at := max(e.Now(), last[l]) + Time((arg>>2)%64)
				last[l] = at
				sentOn[id] = l
				lines[l].At(at, id)
				ref.At(at, func() { want = append(want, id) })
			case lineAt:
				at := e.Now() + Time(arg%4096)
				handles = append(handles, e.At(at, func() { fired = append(fired, id) }))
				refHandles = append(refHandles, ref.At(at, func() { want = append(want, id) }))
			case lineCancel:
				if len(handles) > 0 {
					handles[arg%len(handles)].Cancel()
					refHandles[arg%len(handles)].Cancel()
				}
			case lineStep:
				// The logs agree up to n; one step adds at most one.
				n := len(fired)
				e.Step()
				ref.Step()
				if len(fired) != len(want) || len(fired) > n+1 || !slices.Equal(fired[n:], want[n:]) {
					t.Fatalf("delay lines fired %v, closures %v", fired, want)
				}
			}
			behind := 0
			for _, l := range lines {
				behind += max(l.q.Len()-1, 0)
			}
			if e.Now() != ref.Now() || e.Pending()+behind != ref.Pending() {
				t.Fatalf("Now %v, Pending %d with %d values behind line heads; closures: Now %v, Pending %d",
					e.Now(), e.Pending(), behind, ref.Now(), ref.Pending())
			}
			checkLineHeads(t, e, lines[:])
		}
		e.RunAll()
		ref.RunAll()
		if !slices.Equal(fired, want) {
			t.Fatalf("after draining: delay lines fired %v, closures %v", fired, want)
		}
		for i, l := range lines {
			if l.q.Len() != 0 {
				t.Fatalf("line %d holds %d values after draining", i, l.q.Len())
			}
		}
	})
}

// checkLineHeads fails unless e's queue holds, for each line, an
// event under the head value's key when the line is non-empty and no
// event under the key of any value behind the head.
func checkLineHeads[T any](t *testing.T, e *Engine, lines []*DelayLine[T]) {
	t.Helper()
	queued := make(map[Key]bool, len(e.queue))
	for _, ev := range e.queue {
		queued[Key{ev.t, ev.seq}] = true
	}
	for i, l := range lines {
		for j := 0; j < l.q.Len(); j++ {
			k := l.q.buf[(l.q.head+j)&(len(l.q.buf)-1)].k
			if queued[k] != (j == 0) {
				t.Fatalf("line %d: value %d of %d (key %v) queued=%t; only the head's event may be queued",
					i, j, l.q.Len(), k, queued[k])
			}
		}
	}
}
