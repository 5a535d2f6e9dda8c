package metrics

import (
	"testing"

	"es2/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	for range 5 {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if r := c.Rate(sim.Second); r != 5 {
		t.Fatalf("Rate = %v, want 5", r)
	}
	if r := c.Rate(0); r != 0 {
		t.Fatalf("Rate(0) = %v, want 0", r)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 2.0)
	s.Append(2, 6.0)
	s.Append(3, 4.0)
	if s.Len() != 3 || s.Points[1] != (Point{T: 2, V: 6.0}) {
		t.Fatalf("Len = %d, points %v", s.Len(), s.Points)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown(3)
	for i := 0; i < 10; i++ {
		b.Inc(0)
	}
	for i := 0; i < 30; i++ {
		b.Inc(1)
	}
	if b.Total() != 40 {
		t.Fatalf("Total = %d", b.Total())
	}
	if b.Count(1) != 30 || b.Count(2) != 0 {
		t.Fatalf("Count(1), Count(2) = %d, %d, want 30, 0", b.Count(1), b.Count(2))
	}
	if r := b.Rate(0, 2*sim.Second); r != 5 {
		t.Fatalf("Rate = %v, want 5", r)
	}
	if r := b.TotalRate(sim.Second); r != 40 {
		t.Fatalf("TotalRate = %v, want 40", r)
	}
	b.Reset()
	if b.Total() != 0 {
		t.Fatalf("Total = %d after Reset", b.Total())
	}
}

// An empty breakdown totals zero, and a zero window gives zero rates.
func TestBreakdownEmptyPercent(t *testing.T) {
	b := NewBreakdown(1)
	if b.Total() != 0 {
		t.Fatal("empty breakdown Total should be 0")
	}
	if b.Rate(0, 0) != 0 || b.TotalRate(0) != 0 {
		t.Fatal("zero elapsed should give zero rates")
	}
}
