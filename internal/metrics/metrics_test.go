package metrics

import (
	"testing"

	"es2/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
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

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(-3)
	g.Set(4)
	if g.Value() != 4 || g.Min() != -3 || g.Max() != 10 {
		t.Fatalf("gauge: v=%d min=%d max=%d", g.Value(), g.Min(), g.Max())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 2.0)
	s.Append(2, 6.0)
	s.Append(3, 4.0)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Max() != 6.0 {
		t.Fatalf("Max = %v", s.Max())
	}
	if s.Mean() != 4.0 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	var empty Series
	if empty.Max() != 0 || empty.Mean() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("A", "B", "C")
	for i := 0; i < 10; i++ {
		b.Inc(0)
	}
	for i := 0; i < 30; i++ {
		b.Inc(1)
	}
	if b.Total() != 40 {
		t.Fatalf("Total = %d", b.Total())
	}
	if p := b.Percent(1); p != 75 {
		t.Fatalf("Percent(1) = %v, want 75", p)
	}
	if p := b.Percent(2); p != 0 {
		t.Fatalf("Percent(2) = %v, want 0", p)
	}
	if r := b.Rate(0, 2*sim.Second); r != 5 {
		t.Fatalf("Rate = %v, want 5", r)
	}
	if r := b.TotalRate(sim.Second); r != 40 {
		t.Fatalf("TotalRate = %v, want 40", r)
	}
	table := b.Table(sim.Second)
	if table == "" {
		t.Fatal("Table returned empty string")
	}
}

func TestBreakdownEmptyPercent(t *testing.T) {
	b := NewBreakdown("only")
	if b.Percent(0) != 0 {
		t.Fatal("empty breakdown Percent should be 0")
	}
	if b.Rate(0, 0) != 0 || b.TotalRate(0) != 0 {
		t.Fatal("zero elapsed should give zero rates")
	}
}

func TestGaugeReset(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Set(-3)
	g.Set(4)
	g.Reset()
	if g.Value() != 4 || g.Min() != 4 || g.Max() != 4 {
		t.Fatalf("after Reset: v=%d min=%d max=%d, want all 4", g.Value(), g.Min(), g.Max())
	}
	g.Set(7)
	g.Set(5)
	if g.Min() != 4 || g.Max() != 7 {
		t.Fatalf("post-Reset tracking: min=%d max=%d, want 4/7", g.Min(), g.Max())
	}
}

func TestGaugeResetNeverSet(t *testing.T) {
	var g Gauge
	g.Reset()
	if g.Value() != 0 || g.Min() != 0 || g.Max() != 0 {
		t.Fatal("Reset on a never-set gauge must stay zero")
	}
	g.Set(-5)
	if g.Min() != -5 || g.Max() != -5 {
		t.Fatalf("first Set after empty Reset: min=%d max=%d, want -5/-5", g.Min(), g.Max())
	}
}

func TestSeriesReset(t *testing.T) {
	s := Series{Name: "probe"}
	s.Append(1, 2.0)
	s.Append(2, 6.0)
	s.Reset()
	if s.Len() != 0 || s.Name != "probe" {
		t.Fatalf("after Reset: len=%d name=%q, want 0/probe", s.Len(), s.Name)
	}
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("reset series should report zeros")
	}
	s.Append(3, 9.0)
	if s.Len() != 1 || s.Max() != 9.0 {
		t.Fatalf("append after Reset: len=%d max=%v", s.Len(), s.Max())
	}
}
