// Package trace holds the simulator's execution timeline (Timeline):
// VM exits, interrupt deliveries, redirections, vhost handler turns and
// vCPU scheduling, exported as Perfetto/Chrome-trace JSON.
//
// The timeline is optional and nil-safe, so model components hold it
// unconditionally and pay nothing when it is disabled. Per-stage
// event-path latency lives with the event-path probe (internal/causal).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"es2/internal/sim"
)

// Timeline records execution slices, instants and counter samples and
// exports them in the Chrome trace-event JSON format, loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing.
//
// Tracks are registered up front (deterministic build order) as
// (process, thread) pairs: the runner creates one process per track
// group — "cores", one per VM, "vhost", "probes" — with one thread per
// physical core, vCPU or vhost worker. Events reference tracks by id,
// keeping the hot recording path allocation-free apart from slice
// growth.
//
// A nil *Timeline is safe to record into (no-op). A non-nil Timeline
// starts inactive: events are dropped until Activate, so the runner can
// restrict the export to the measurement window. Everything recorded
// derives from virtual time and deterministic model state, so two runs
// of the same spec and seed serialize to byte-identical JSON.
type Timeline struct {
	active bool

	procs  []string // process names; pid = index+1
	tracks []track
	byName map[trackKey]TrackID

	events []tevent
}

// TrackID references a registered track. The zero value is the first
// registered track; use NoTrack for "none".
type TrackID int32

// NoTrack is an invalid track id; recording against it is a no-op.
const NoTrack TrackID = -1

type trackKey struct{ process, thread string }

type track struct {
	pid  int // 1-based
	tid  int // 1-based within the process
	name string
}

type tevent struct {
	ph    byte // 'X' slice, 'i' instant, 'C' counter
	track TrackID
	name  string
	ts    sim.Time
	dur   sim.Time // X only
	val   float64  // C only
}

// NewTimeline creates an empty, inactive timeline.
func NewTimeline() *Timeline {
	return &Timeline{byName: make(map[trackKey]TrackID)}
}

// Activate starts event recording (idempotent). Track registration is
// allowed before activation; recorded events are dropped until then.
func (t *Timeline) Activate() {
	if t == nil {
		return
	}
	t.active = true
}

// Active reports whether events are currently recorded.
func (t *Timeline) Active() bool { return t != nil && t.active }

// Track registers (or finds) the track for the given process/thread
// pair and returns its id. Registration order is significant only for
// pid/tid assignment; register during deterministic build for
// byte-stable output. Returns NoTrack on a nil receiver.
func (t *Timeline) Track(process, thread string) TrackID {
	if t == nil {
		return NoTrack
	}
	k := trackKey{process, thread}
	if id, ok := t.byName[k]; ok {
		return id
	}
	pid := 0
	for i, p := range t.procs {
		if p == process {
			pid = i + 1
			break
		}
	}
	if pid == 0 {
		t.procs = append(t.procs, process)
		pid = len(t.procs)
	}
	tid := 1
	for _, tr := range t.tracks {
		if tr.pid == pid {
			tid++
		}
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, track{pid: pid, tid: tid, name: thread})
	t.byName[k] = id
	return id
}

// Slice records a complete span [start, end) on the track.
func (t *Timeline) Slice(tr TrackID, name string, start, end sim.Time) {
	if t == nil || !t.active || tr < 0 {
		return
	}
	if end < start {
		end = start
	}
	t.events = append(t.events, tevent{ph: 'X', track: tr, name: name, ts: start, dur: end - start})
}

// Instant records a point event on the track.
func (t *Timeline) Instant(tr TrackID, name string, at sim.Time) {
	if t == nil || !t.active || tr < 0 {
		return
	}
	t.events = append(t.events, tevent{ph: 'i', track: tr, name: name, ts: at})
}

// Counter records a counter sample on the track's process.
func (t *Timeline) Counter(tr TrackID, name string, at sim.Time, v float64) {
	if t == nil || !t.active || tr < 0 {
		return
	}
	t.events = append(t.events, tevent{ph: 'C', track: tr, name: name, ts: at, val: v})
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON serializes the timeline as Chrome trace-event JSON.
// Timestamps are microseconds with nanosecond resolution, as the format
// expects. The output is a pure function of the recorded state.
func (t *Timeline) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`+"\n")
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
	}
	for i, p := range t.procs {
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			i+1, quote(p))
	}
	for _, tr := range t.tracks {
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			tr.pid, tr.tid, quote(tr.name))
	}
	for _, e := range t.events {
		tr := t.tracks[e.track]
		sep()
		switch e.ph {
		case 'X':
			fmt.Fprintf(bw, `{"ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s}`,
				tr.pid, tr.tid, usec(e.ts), usec(e.dur), quote(e.name))
		case 'i':
			fmt.Fprintf(bw, `{"ph":"i","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s}`,
				tr.pid, tr.tid, usec(e.ts), quote(e.name))
		case 'C':
			fmt.Fprintf(bw, `{"ph":"C","pid":%d,"tid":%d,"ts":%s,"name":%s,"args":{"value":%s}}`,
				tr.pid, tr.tid, usec(e.ts), quote(e.name),
				strconv.FormatFloat(e.val, 'g', -1, 64))
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// usec formats a virtual-time value as microseconds with nanosecond
// resolution. Integer math keeps the formatting exact and stable.
func usec(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, int64(t)/1000, int64(t)%1000)
}

// quote JSON-escapes a track/event name. Go string quoting is a valid
// JSON string for the ASCII names the model generates.
func quote(s string) string {
	return strconv.Quote(s)
}
