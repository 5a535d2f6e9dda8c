package metrics

import "es2/internal/sim"

// Breakdown tallies events by a small integer category (e.g. VM exit
// reason), for the count and rate tables that the paper reports
// (Table I, Fig. 5).
type Breakdown struct {
	counts []uint64
}

// NewBreakdown creates a breakdown over n categories, numbered from 0.
func NewBreakdown(n int) *Breakdown {
	return &Breakdown{counts: make([]uint64, n)}
}

// Inc adds one event to category i.
func (b *Breakdown) Inc(i int) { b.counts[i]++ }

// Reset zeroes all categories (used at measurement-window boundaries).
func (b *Breakdown) Reset() {
	for i := range b.counts {
		b.counts[i] = 0
	}
}

// Count returns the tally of category i.
func (b *Breakdown) Count(i int) uint64 { return b.counts[i] }

// Total returns the sum over all categories.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, c := range b.counts {
		t += c
	}
	return t
}

// Rate returns category i's events per second of elapsed virtual time.
func (b *Breakdown) Rate(i int, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(b.counts[i]) / elapsed.Seconds()
}

// TotalRate returns total events per second of elapsed virtual time.
func (b *Breakdown) TotalRate(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(b.Total()) / elapsed.Seconds()
}
