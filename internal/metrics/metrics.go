// Package metrics provides the measurement primitives used by the
// simulator: counters, rate meters, latency histograms, time series and
// the VM-exit breakdown tables that the paper's evaluation reports.
//
// All types are plain single-goroutine values; each simulation engine
// owns its own metric set. Aggregation across parallel scenario runs
// happens at the harness layer after the engines have finished.
package metrics

import "es2/internal/sim"

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter (monotone by construction: the delta
// is unsigned).
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter (used at measurement-window boundaries).
func (c *Counter) Reset() { c.n = 0 }

// Rate returns the count divided by the elapsed virtual time, per second.
// It returns 0 for a non-positive interval.
func (c *Counter) Rate(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.n) / elapsed.Seconds()
}

// Gauge is an instantaneous value with min/max tracking.
type Gauge struct {
	v        int64
	min, max int64
	set      bool
}

// Set records a new value.
func (g *Gauge) Set(v int64) {
	g.v = v
	if !g.set || v < g.min {
		g.min = v
	}
	if !g.set || v > g.max {
		g.max = v
	}
	g.set = true
}

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v }

// Min returns the smallest value ever set (0 if never set).
func (g *Gauge) Min() int64 { return g.min }

// Max returns the largest value ever set (0 if never set).
func (g *Gauge) Max() int64 { return g.max }

// Reset restarts min/max tracking at the current value (used at
// measurement-window boundaries, so warmup extremes do not leak into
// the measured window). A gauge is a level and the level persists
// across the boundary, so the last value set is kept and becomes the
// initial min and max of the new window; a never-set gauge stays unset.
func (g *Gauge) Reset() {
	if !g.set {
		return
	}
	g.min, g.max = g.v, g.v
}

// Point is one (time, value) sample of a Series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series, used for the Fig. 7 RTT trace
// and throughput-over-time plots.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample.
func (s *Series) Append(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Reset discards all samples, keeping the name (used at
// measurement-window boundaries).
func (s *Series) Reset() { s.Points = s.Points[:0] }

// Max returns the largest value in the series (0 when empty).
func (s *Series) Max() float64 {
	m := 0.0
	for i, p := range s.Points {
		if i == 0 || p.V > m {
			m = p.V
		}
	}
	return m
}

// Mean returns the mean value of the series (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}
