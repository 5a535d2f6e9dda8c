package apic

import (
	"testing"

	"es2/internal/sim"
)

func TestVectorStampsCoalesce(t *testing.T) {
	var s VectorStamps
	s.Mark(0x31, StampPosted, 100)
	s.Mark(0x31, StampEmulated, 200) // re-injection: first stamp wins
	tm, mech, ok := s.Take(0x31)
	if !ok || tm != 100 || mech != StampPosted {
		t.Fatalf("Take = (%v, %v, %v), want (100, posted, true)", tm, mech, ok)
	}
	if _, _, ok := s.Take(0x31); ok {
		t.Fatal("second Take should report no pending stamp")
	}
}

func TestVectorStampsIndependentVectors(t *testing.T) {
	var s VectorStamps
	s.Mark(0x20, StampEmulated, sim.Time(7))
	s.Mark(0x21, StampPosted, sim.Time(9))
	if tm, mech, ok := s.Take(0x21); !ok || tm != 9 || mech != StampPosted {
		t.Fatalf("vector 0x21: (%v, %v, %v)", tm, mech, ok)
	}
	if tm, mech, ok := s.Take(0x20); !ok || tm != 7 || mech != StampEmulated {
		t.Fatalf("vector 0x20: (%v, %v, %v)", tm, mech, ok)
	}
}

// Nil stamps, which no injection has marked, have nothing pending.
func TestVectorStampsNilTake(t *testing.T) {
	var s *VectorStamps
	if _, _, ok := s.Take(0x31); ok {
		t.Fatal("Take on nil stamps reported a pending stamp")
	}
}
