// Package metrics provides the measurement primitives used by the
// simulator: counters, latency histograms, time series and the
// VM-exit breakdowns that the paper's evaluation reports.
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
