package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"es2/internal/sim"
)

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
