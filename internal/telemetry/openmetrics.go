package telemetry

import (
	"io"
	"strings"
)

// Quantiles exposed for every latency histogram (the full spectrum the
// telemetry reports: p50/p90/p99/p99.9).
var summaryQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.9", 0.9},
	{"0.99", 0.99},
	{"0.999", 0.999},
}

// WriteOpenMetrics writes a single OpenMetrics text exposition of the
// recorder's state: counters as totals since Start, gauges at their
// final sample, fractions as the overall ratio, and histograms as
// summaries with the quantile spectrum plus _sum/_count. Families are
// emitted in registration order, each introduced by its # TYPE and
// # HELP lines, and the exposition ends with # EOF. Output is
// byte-deterministic for a fixed spec and seed.
func (r *Recorder) WriteOpenMetrics(w io.Writer) error {
	bw := newErrWriter(w)
	done := make(map[string]bool)
	for _, p := range r.probes {
		if done[p.family] {
			continue
		}
		done[p.family] = true
		r.writeFamily(bw, p.family)
	}
	for _, h := range r.hists {
		if done[h.family] {
			continue
		}
		done[h.family] = true
		r.writeSummaryFamily(bw, h.family)
	}
	bw.str("# EOF\n")
	return bw.err
}

// writeFamily emits one probe family: the TYPE/HELP header from its
// first registration, then every sample with that family name.
func (r *Recorder) writeFamily(bw *errWriter, family string) {
	var kind Kind
	var help string
	for _, p := range r.probes {
		if p.family == family {
			kind, help = p.kind, p.help
			break
		}
	}
	typ := "gauge"
	if kind == KindCounter {
		typ = "counter"
	}
	bw.str("# TYPE " + family + " " + typ + "\n")
	bw.str("# HELP " + family + " " + help + "\n")
	for _, p := range r.probes {
		if p.family != family {
			continue
		}
		name := family
		var v float64
		switch p.kind {
		case KindCounter:
			name += "_total"
			v = p.get() - p.start
		case KindGauge:
			v = p.get()
		case KindFraction:
			num := p.get() - p.start
			if den := p.den() - p.startDen; den != 0 {
				v = num / den
			}
		}
		bw.str(name)
		bw.str(renderLabels(p.labels, "", ""))
		bw.str(" ")
		bw.str(formatFloat(v))
		bw.str("\n")
	}
}

// writeSummaryFamily emits one histogram family as an OpenMetrics
// summary: quantile samples in seconds, then _sum and _count.
func (r *Recorder) writeSummaryFamily(bw *errWriter, family string) {
	var help string
	for _, h := range r.hists {
		if h.family == family {
			help = h.help
			break
		}
	}
	bw.str("# TYPE " + family + " summary\n")
	bw.str("# HELP " + family + " " + help + "\n")
	for _, h := range r.hists {
		if h.family != family {
			continue
		}
		for _, sq := range summaryQuantiles {
			bw.str(family)
			bw.str(renderLabels(h.labels, "quantile", sq.label))
			bw.str(" ")
			bw.str(formatFloat(h.h.Quantile(sq.q).Seconds()))
			bw.str("\n")
		}
		bw.str(family + "_sum")
		bw.str(renderLabels(h.labels, "", ""))
		bw.str(" ")
		bw.str(formatFloat(h.h.Sum().Seconds()))
		bw.str("\n")
		bw.str(family + "_count")
		bw.str(renderLabels(h.labels, "", ""))
		bw.str(" ")
		bw.str(formatFloat(float64(h.h.Count())))
		bw.str("\n")
	}
}

// renderLabels renders {k="v",...}, optionally appending one extra
// pair (the summary quantile), with OpenMetrics value escaping. An
// empty label set renders as nothing.
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString("=\"")
		b.WriteString(EscapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString("=\"")
		b.WriteString(EscapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabel applies the OpenMetrics label-value escapes: backslash,
// double quote and line feed. Every exposition in the tree escapes
// label values through it.
func EscapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// UnescapeLabel reverses EscapeLabel (used by the exposition lint
// test's parser).
func UnescapeLabel(v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}
