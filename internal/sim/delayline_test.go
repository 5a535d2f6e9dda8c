package sim

import (
	"slices"
	"strings"
	"testing"
)

// TestDelayLineKeepsClosureOrder sends values on two lines, interleaved
// with plain At events at the same instants and with a delivery that
// sends again at its own instant. The fire order must be the one a
// closure per value gives.
func TestDelayLineKeepsClosureOrder(t *testing.T) {
	run := func(lines bool) []string {
		e := NewEngine(1)
		var got []string
		log := func(s string) { got = append(got, s) }
		var send func(line int, at Time, s string)
		a := NewDelayLine(e, log)
		b := NewDelayLine(e, func(s string) {
			log(s)
			if s == "b1" {
				send(1, e.Now(), "b1-again")
			}
		})
		send = func(line int, at Time, s string) {
			switch {
			case !lines && line == 1 && s == "b1":
				e.At(at, func() { log(s); send(1, e.Now(), "b1-again") })
			case !lines:
				e.At(at, func() { log(s) })
			case line == 0:
				a.At(at, s)
			default:
				b.At(at, s)
			}
		}
		plain := func(at Time, s string) { e.At(at, func() { log(s) }) }
		send(0, 10, "a0")
		plain(10, "x0")
		send(1, 10, "b0")
		send(0, 10, "a1")
		plain(5, "x1")
		send(1, 10, "b1")
		plain(10, "x2")
		send(0, 15, "a2")
		plain(15, "x3")
		send(0, 20, "a3")
		e.RunAll()
		return got
	}
	want := run(false)
	if got := run(true); !slices.Equal(got, want) {
		t.Fatalf("delay lines fired %v, closures %v", got, want)
	}
	if s := strings.Join(want, " "); s != "x1 a0 x0 b0 a1 b1 x2 b1-again a2 x3 a3" {
		t.Fatalf("unexpected reference order %s", s)
	}
}

func TestDelayLineOutOfOrderPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(20, func() {})
	e.Step()
	d := NewDelayLine(e, func(int) {})
	d.At(30, 1)
	d.At(30, 2) // an equal deadline is fine
	fresh := NewDelayLine(e, func(int) {})
	for _, c := range []struct {
		what string
		send func()
	}{
		{"a deadline before the previous one", func() { d.At(29, 3) }},
		{"a negative delay", func() { d.After(-1, 4) }},
		{"a deadline in the past", func() { fresh.At(15, 5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.what)
				}
			}()
			c.send()
		}()
	}
	// Only the head of d is queued.
	if d.q.Len() != 2 || fresh.q.Len() != 0 || e.Pending() != 1 {
		t.Fatalf("after the refused sends: %d and %d values on the lines, %d events pending, want 2, 0 and 1",
			d.q.Len(), fresh.q.Len(), e.Pending())
	}
}

// TestDelayLineQueuesOnlyItsHead sends 1,000 values on one line, two
// at each instant, and then a plain At event at each of those
// instants. The line must hold one queued event however many values
// wait, and each value must fire under the key it reserved at send:
// before the plain event of its instant, which was scheduled later,
// although the line queued the value's event after that plain event.
func TestDelayLineQueuesOnlyItsHead(t *testing.T) {
	const n = 1000
	e := NewEngine(1)
	var got []int
	d := NewDelayLine(e, func(v int) {
		if want := Time(10 + v/2); e.Now() != want {
			t.Fatalf("value %d delivered at %v, want %v", v, e.Now(), want)
		}
		got = append(got, v)
	})
	for v := 0; v < n; v++ {
		d.At(Time(10+v/2), v)
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending after %d sends on one line, want 1", e.Pending(), n)
	}
	checkLineHeads(t, e, []*DelayLine[int]{d})
	var want []int
	for i := 0; i < n/2; i++ {
		e.At(Time(10+i), func() { got = append(got, -i-1) })
		want = append(want, 2*i, 2*i+1, -i-1)
	}
	e.RunAll()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired %d, want %d (values by index, plain events negative)", i, got[i], want[i])
		}
	}
	if e.Pending() != 0 || d.q.Len() != 0 {
		t.Fatalf("after draining: %d events pending, %d values on the line", e.Pending(), d.q.Len())
	}
}

// TestDelayLineGrows sends more values than the first ring holds, with
// the ring wrapped, and checks they arrive in order.
func TestDelayLineGrows(t *testing.T) {
	e := NewEngine(1)
	var got []int
	d := NewDelayLine(e, func(p *int) { got = append(got, *p) })
	vals := make([]int, 40)
	for i := range vals {
		vals[i] = i
	}
	for i := 0; i < 3; i++ {
		d.After(1, &vals[i])
	}
	e.Step()
	e.Step()
	for i := 3; i < len(vals); i++ {
		d.After(Time(i), &vals[i])
	}
	e.RunAll()
	if len(got) != len(vals) {
		t.Fatalf("delivered %d values, want %d", len(got), len(vals))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivered %v, want 0..%d in order", got, len(vals)-1)
		}
	}
}
