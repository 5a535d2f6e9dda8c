package apic

import "es2/internal/sim"

// NumVectors is the x86 vector-space size.
const NumVectors = 256

// StampMech tags which delivery path a stamped injection took.
type StampMech uint8

const (
	// StampEmulated marks software-emulated LAPIC injection.
	StampEmulated StampMech = iota
	// StampPosted marks hardware posted-interrupt delivery.
	StampPosted
)

// String names the delivery path for exports and rendered tables.
func (s StampMech) String() string {
	if s == StampPosted {
		return "posted"
	}
	return "emulated"
}

// VectorStamps tracks, per vector, the instant the hypervisor first
// injected a still-undelivered interrupt — the open end of the
// interrupt-delivery latency span (injection → guest handler entry).
// Re-injections of an already-pending vector coalesce into the first
// stamp, mirroring IRR semantics: one acceptance serves them all.
// Purely observational; the delivery paths consult it only when the
// telemetry latency histograms or the causal analyzer are enabled.
type VectorStamps struct {
	t    [NumVectors]sim.Time
	mech [NumVectors]StampMech
	pend [NumVectors]bool
}

// Mark opens the delivery span for vec at now via mech. A vector
// already pending keeps its earlier (first) stamp and mechanism.
func (s *VectorStamps) Mark(vec Vector, mech StampMech, now sim.Time) {
	if s.pend[vec] {
		return
	}
	s.pend[vec] = true
	s.t[vec] = now
	s.mech[vec] = mech
}

// Take closes the span for vec, returning the stamp and mechanism.
// ok is false when no injection was pending (e.g. the stamp predates
// instrumentation being enabled), and always on nil stamps, which no
// injection has marked yet.
func (s *VectorStamps) Take(vec Vector) (t sim.Time, mech StampMech, ok bool) {
	if s == nil || !s.pend[vec] {
		return 0, 0, false
	}
	s.pend[vec] = false
	return s.t[vec], s.mech[vec], true
}
