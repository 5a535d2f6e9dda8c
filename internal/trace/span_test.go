package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"es2/internal/sim"
)

func TestNilPathTracerIsNoop(t *testing.T) {
	var p *PathTracer
	p.Observe(StageNotify, MechExit, 5) // must not panic
	p.OpenSignal(0, 0x31, MechPosted, 10)
	p.CloseSignal(0, 0x31, 20)
	p.Reset()
	if p.Stats() != nil {
		t.Fatal("nil tracer should return nil stats")
	}
	if p.Hist(StageNotify, MechExit) != nil {
		t.Fatal("nil tracer should return nil histograms")
	}
	if p.TL() != nil {
		t.Fatal("nil tracer should return nil timeline")
	}
}

func TestPathTracerObserveAndStats(t *testing.T) {
	p := NewPathTracer(nil)
	p.Observe(StageDeliver, MechNone, 100)
	p.Observe(StageNotify, MechPolled, 30)
	p.Observe(StageNotify, MechExit, 10)
	p.Observe(StageNotify, MechExit, 20)
	p.Observe(StageNotify, MechExit, -5) // clamped to 0

	st := p.Stats()
	if len(st) != 3 {
		t.Fatalf("got %d cells, want 3", len(st))
	}
	// Stage-major, mechanism-minor order.
	if st[0].Stage != StageNotify || st[0].Mechanism != MechExit {
		t.Fatalf("st[0] = %v/%v, want notify/exit", st[0].Stage, st[0].Mechanism)
	}
	if st[1].Stage != StageNotify || st[1].Mechanism != MechPolled {
		t.Fatalf("st[1] = %v/%v, want notify/polled", st[1].Stage, st[1].Mechanism)
	}
	if st[2].Stage != StageDeliver {
		t.Fatalf("st[2] = %v, want deliver", st[2].Stage)
	}
	if st[0].Count != 3 || st[0].Mean != 10 || st[0].Max != 20 {
		t.Fatalf("notify/exit: count=%d mean=%v max=%v, want 3/10/20",
			st[0].Count, st[0].Mean, st[0].Max)
	}

	p.Reset()
	if len(p.Stats()) != 0 {
		t.Fatal("Reset should discard all observations")
	}
}

func TestSignalSpanCoalescing(t *testing.T) {
	p := NewPathTracer(nil)
	p.OpenSignal(0, 0x31, MechPosted, 100)
	p.OpenSignal(0, 0x31, MechEmulated, 200) // coalesces: earliest origin kept
	p.CloseSignal(0, 0x31, 350)

	h := p.Hist(StageSignal, MechPosted)
	if h == nil || h.Count() != 1 || h.Max() != 250 {
		t.Fatalf("coalesced span: hist=%v, want one 250ns posted observation", h)
	}
	if p.Hist(StageSignal, MechEmulated) != nil {
		t.Fatal("second open must not override the mechanism of the open span")
	}

	// Closing again, or closing a vector never opened, is a no-op.
	p.CloseSignal(0, 0x31, 400)
	p.CloseSignal(1, 0x31, 400)
	if h.Count() != 1 {
		t.Fatalf("spurious close recorded: count=%d", h.Count())
	}

	// Distinct (vm, vector) pairs track independent spans.
	p.OpenSignal(0, 0x32, MechPosted, 500)
	p.OpenSignal(1, 0x32, MechPosted, 600)
	p.CloseSignal(1, 0x32, 650)
	p.CloseSignal(0, 0x32, 700)
	if h.Count() != 3 || h.Max() != 250 {
		t.Fatalf("independent spans: count=%d max=%v, want 3/250", h.Count(), h.Max())
	}

	// Reset drops in-flight spans: a close after Reset records nothing.
	p.OpenSignal(0, 0x33, MechPosted, 800)
	p.Reset()
	p.CloseSignal(0, 0x33, 900)
	if got := p.Hist(StageSignal, MechPosted); got != nil && got.Count() != 0 {
		t.Fatalf("close after Reset recorded: count=%d", got.Count())
	}
}

func TestNilTimelineIsNoop(t *testing.T) {
	var tl *Timeline
	if tl.Active() {
		t.Fatal("nil timeline must be inactive")
	}
	tl.Activate()
	if id := tl.Track("p", "t"); id != NoTrack {
		t.Fatalf("nil Track = %d, want NoTrack", id)
	}
	tl.Slice(0, "s", 0, 10)
	tl.Instant(0, "i", 5)
	tl.Counter(0, "c", 5, 1)
	if tl.Len() != 0 {
		t.Fatal("nil timeline should record nothing")
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil WriteJSON is not valid JSON: %s", buf.String())
	}
}

func TestTimelineInactiveDropsEvents(t *testing.T) {
	tl := NewTimeline()
	id := tl.Track("vm0", "vcpu0")
	tl.Slice(id, "exit", 0, 100)
	tl.Instant(id, "irq", 50)
	if tl.Len() != 0 {
		t.Fatalf("inactive timeline recorded %d events", tl.Len())
	}
	tl.Activate()
	tl.Slice(id, "exit", 0, 100)
	tl.Slice(NoTrack, "dropped", 0, 100)
	if tl.Len() != 1 {
		t.Fatalf("got %d events, want 1", tl.Len())
	}
}

func TestTimelineWriteJSON(t *testing.T) {
	tl := NewTimeline()
	cores := tl.Track("cores", "core0")
	vcpu := tl.Track("vm0", "vcpu0")
	core1 := tl.Track("cores", "core1")
	if again := tl.Track("cores", "core0"); again != cores {
		t.Fatalf("re-registering a track returned %d, want %d", again, cores)
	}
	tl.Activate()
	tl.Slice(cores, "vhost-tx", 1500, 4750)
	tl.Slice(vcpu, "exit:EPTViolation", 2000, 1000) // end < start clamps to zero dur
	tl.Instant(vcpu, `irq"0x31"`, 3000)             // name needing JSON escaping
	tl.Counter(core1, "runnable", 4000, 2)

	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 process_name + 3 thread_name metadata records + 4 events.
	if len(doc.Events) != 9 {
		t.Fatalf("got %d records, want 9", len(doc.Events))
	}
	var slices, instants, counters int
	for _, e := range doc.Events {
		switch e["ph"] {
		case "X":
			slices++
			if e["name"] == "vhost-tx" {
				if e["ts"] != 1.5 || e["dur"] != 3.25 {
					t.Fatalf("slice ts/dur = %v/%v, want 1.5/3.25 us", e["ts"], e["dur"])
				}
			}
			if e["name"] == "exit:EPTViolation" && e["dur"] != 0.0 {
				t.Fatalf("negative-duration slice not clamped: dur=%v", e["dur"])
			}
		case "i":
			instants++
			if e["name"] != `irq"0x31"` {
				t.Fatalf("instant name mangled: %q", e["name"])
			}
		case "C":
			counters++
		}
	}
	if slices != 2 || instants != 1 || counters != 1 {
		t.Fatalf("got %d/%d/%d slices/instants/counters, want 2/1/1", slices, instants, counters)
	}

	// Byte-determinism: serializing the same state twice is identical.
	var buf2 bytes.Buffer
	if err := tl.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteJSON is not deterministic")
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := []struct {
		in   sim.Time
		want string
	}{
		{0, "0.000"},
		{1, "0.001"},
		{999, "0.999"},
		{1000, "1.000"},
		{1234567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := usec(c.in); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPathTracerTimelineAttachment(t *testing.T) {
	tl := NewTimeline()
	p := NewPathTracer(tl)
	if p.TL() != tl {
		t.Fatal("TL should return the attached timeline")
	}
	if NewPathTracer(nil).TL() != nil {
		t.Fatal("TL of a tracer without timeline should be nil")
	}
}
