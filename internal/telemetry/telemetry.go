// Package telemetry implements the windowed telemetry recorder: a set
// of named probes over the simulation's existing counters, sampled at
// fixed simulated-time window boundaries, plus full-spectrum latency
// histograms, exported deterministically as OpenMetrics text and CSV.
//
// The recorder is strictly observational. Probes read model state and
// never mutate it; boundary events draw no randomness; the same spec
// and seed therefore produce byte-identical exports, and enabling the
// recorder changes no simulation outcome.
//
// Cumulative counters are snapshotted at every boundary and reported
// as per-window deltas, so the windowed series integrate exactly to
// the end-of-run totals: the final partial window is closed by
// Finalize, which the harness calls after the engine stops at the
// measurement horizon — the same instant the scalar results are read.
package telemetry

import (
	"fmt"
	"io"
	"strconv"

	"es2/internal/metrics"
	"es2/internal/sim"
)

// Kind classifies a probe.
type Kind uint8

const (
	// KindCounter probes read a cumulative monotone count; windows
	// report deltas, the exposition reports the total since Start.
	KindCounter Kind = iota
	// KindGauge probes read an instantaneous level, sampled at each
	// window's end.
	KindGauge
	// KindFraction probes are a ratio of two cumulative quantities;
	// windows report Δnum/Δden (0 when Δden is 0).
	KindFraction
)

// Label is one OpenMetrics label pair.
type Label struct{ Key, Value string }

// probe is one registered series.
type probe struct {
	family string
	help   string
	kind   Kind
	labels []Label
	get    func() float64 // cumulative (counter/fraction num) or level (gauge)
	den    func() float64 // fraction denominator (cumulative); nil otherwise

	base, baseDen   float64 // snapshot at the current window's start
	start, startDen float64 // snapshot at recorder Start
}

// column renders the probe's CSV column / series identity:
// family{k="v",...}.
func (p *probe) column() string {
	if len(p.labels) == 0 {
		return p.family
	}
	s := p.family + "{"
	for i, l := range p.labels {
		if i > 0 {
			s += ","
		}
		s += l.Key + "=\"" + EscapeLabel(l.Value) + "\""
	}
	return s + "}"
}

// histProbe is one registered latency histogram, exported as an
// OpenMetrics summary with the full quantile spectrum.
type histProbe struct {
	family string
	help   string
	labels []Label
	h      *metrics.LogHistogram
}

// Window is one closed sampling window. Values align with Columns():
// per-window deltas for counters, end-of-window samples for gauges,
// Δnum/Δden for fractions.
type Window struct {
	Start, End sim.Time
	Values     []float64
}

// Recorder is the windowed telemetry recorder. Register probes during
// deterministic build, call Start at the beginning of the measurement
// window and Finalize after the engine reaches the horizon, then
// export with WriteOpenMetrics / WriteCSV.
type Recorder struct {
	eng    *sim.Engine
	window sim.Time

	probes []*probe
	hists  []*histProbe

	windows      []Window
	startT, endT sim.Time
	lastBoundary sim.Time
	started      bool
	finalized    bool
}

// New creates a recorder sampling every window of simulated time.
func New(eng *sim.Engine, window sim.Time) *Recorder {
	if window <= 0 {
		panic("telemetry: window must be positive")
	}
	return &Recorder{eng: eng, window: window}
}

// Counter registers a cumulative monotone series. get returns the
// current cumulative value; the recorder derives windowed deltas.
func (r *Recorder) Counter(family, help string, labels []Label, get func() float64) {
	r.add(&probe{family: family, help: help, kind: KindCounter, labels: labels, get: get})
}

// Gauge registers an instantaneous level, sampled at window ends.
func (r *Recorder) Gauge(family, help string, labels []Label, get func() float64) {
	r.add(&probe{family: family, help: help, kind: KindGauge, labels: labels, get: get})
}

// Fraction registers a ratio of two cumulative quantities (e.g. TIG =
// guest time over guest+host time). Each window reports the ratio of
// the in-window deltas.
func (r *Recorder) Fraction(family, help string, labels []Label, num, den func() float64) {
	r.add(&probe{family: family, help: help, kind: KindFraction, labels: labels, get: num, den: den})
}

// Histogram registers a latency histogram for summary exposition. The
// histogram accumulates over the whole measurement window; the caller
// resets it at Start time.
func (r *Recorder) Histogram(family, help string, labels []Label, h *metrics.LogHistogram) {
	r.hists = append(r.hists, &histProbe{family: family, help: help, labels: labels, h: h})
}

func (r *Recorder) add(p *probe) {
	if r.started {
		panic("telemetry: probe registered after Start")
	}
	r.probes = append(r.probes, p)
}

// Start begins recording: the current engine time becomes the first
// window's start, and boundary samples are scheduled every window
// strictly before end. The final (possibly partial) window is closed
// by Finalize, not by an engine event, so its end coincides exactly
// with the instant the harness reads its scalar results.
func (r *Recorder) Start(end sim.Time) {
	if r.started {
		panic("telemetry: Start called twice")
	}
	r.started = true
	r.startT = r.eng.Now()
	r.endT = end
	r.lastBoundary = r.startT
	for _, p := range r.probes {
		p.start = p.get()
		p.base = p.start
		if p.den != nil {
			p.startDen = p.den()
			p.baseDen = p.startDen
		}
	}
	r.scheduleNext()
}

func (r *Recorder) scheduleNext() {
	next := r.lastBoundary + r.window
	if next >= r.endT {
		return // Finalize closes the remainder
	}
	r.eng.At(next, func() {
		r.closeWindow(next)
		r.scheduleNext()
	})
}

// closeWindow snapshots every probe and appends the finished window.
func (r *Recorder) closeWindow(end sim.Time) {
	w := Window{Start: r.lastBoundary, End: end, Values: make([]float64, len(r.probes))}
	for i, p := range r.probes {
		switch p.kind {
		case KindCounter:
			v := p.get()
			w.Values[i] = v - p.base
			p.base = v
		case KindGauge:
			w.Values[i] = p.get()
		case KindFraction:
			num, den := p.get(), p.den()
			if d := den - p.baseDen; d != 0 {
				w.Values[i] = (num - p.base) / d
			}
			p.base, p.baseDen = num, den
		}
	}
	r.windows = append(r.windows, w)
	r.lastBoundary = end
}

// Finalize closes the final partial window at the measurement horizon.
// Call it after the engine's Run returns (the clock then reads exactly
// the horizon), before reading windows or writing exports.
func (r *Recorder) Finalize() {
	if !r.started || r.finalized {
		return
	}
	r.finalized = true
	if r.endT > r.lastBoundary {
		r.closeWindow(r.endT)
	}
}

// Columns returns the per-probe series identities, in registration
// order (the CSV column order).
func (r *Recorder) Columns() []string {
	cols := make([]string, len(r.probes))
	for i, p := range r.probes {
		cols[i] = p.column()
	}
	return cols
}

// Kinds returns the per-probe kinds, aligned with Columns.
func (r *Recorder) Kinds() []Kind {
	ks := make([]Kind, len(r.probes))
	for i, p := range r.probes {
		ks[i] = p.kind
	}
	return ks
}

// Windows returns the closed windows in time order.
func (r *Recorder) Windows() []Window { return r.windows }

// SeriesCount returns the number of registered series (probes plus
// histograms).
func (r *Recorder) SeriesCount() int { return len(r.probes) + len(r.hists) }

// Total returns a counter probe's cumulative value since Start (the
// value its windowed deltas sum to). It panics on unknown columns.
func (r *Recorder) Total(column string) float64 {
	for _, p := range r.probes {
		if p.column() == column {
			return p.get() - p.start
		}
	}
	panic(fmt.Sprintf("telemetry: unknown column %q", column))
}

// WriteCSV writes the per-window series: one row per window with the
// window index, start/end in seconds, and one column per probe —
// counters as per-second rates within the window, gauges and fractions
// as sampled. Output is byte-deterministic for a fixed spec and seed.
func (r *Recorder) WriteCSV(w io.Writer) error {
	bw := newErrWriter(w)
	bw.str("window,start_s,end_s")
	for _, p := range r.probes {
		bw.str(",")
		bw.str(csvQuote(p.column()))
	}
	bw.str("\n")
	for i, win := range r.windows {
		bw.str(strconv.Itoa(i))
		bw.str(",")
		bw.str(formatFloat(win.Start.Seconds()))
		bw.str(",")
		bw.str(formatFloat(win.End.Seconds()))
		secs := (win.End - win.Start).Seconds()
		for j, p := range r.probes {
			v := win.Values[j]
			if p.kind == KindCounter && secs > 0 {
				v /= secs
			}
			bw.str(",")
			bw.str(formatFloat(v))
		}
		bw.str("\n")
	}
	return bw.err
}

// csvQuote wraps a field in double quotes when it contains a comma or
// quote (label values can), doubling embedded quotes per RFC 4180.
func csvQuote(s string) string {
	need := false
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '"' || s[i] == '\n' {
			need = true
			break
		}
	}
	if !need {
		return s
	}
	out := make([]byte, 0, len(s)+2)
	out = append(out, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(append(out, '"'))
}

// formatFloat renders a float64 with the shortest round-trip
// representation — deterministic across runs and platforms.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter folds write errors so export code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func newErrWriter(w io.Writer) *errWriter { return &errWriter{w: w} }

func (e *errWriter) str(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}
