// Package sim provides the deterministic discrete-event simulation engine
// that underlies every other package in this repository.
//
// The engine maintains a virtual clock with nanosecond resolution and a
// priority queue of scheduled events. All model code runs inside event
// callbacks on a single goroutine per Engine, so model state never needs
// locking as long as it is owned by one engine. Multiple engines may run
// concurrently (the benchmark harness exploits this to sweep scenarios in
// parallel).
//
// Determinism is a hard invariant: the engine never consults the wall
// clock, ties between events scheduled for the same instant are broken by
// insertion order, and all randomness flows from a seeded splitmix64
// generator. Running the same scenario with the same seed always produces
// bit-identical results.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of
// the simulation. It is a distinct type from time.Duration to keep wall
// time and virtual time from mixing accidentally.
type Time int64

// Common duration units, usable as "5 * sim.Microsecond".
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// DurationOf converts a time.Duration into virtual time. It is provided
// for API boundaries (scenario specs use time.Duration for familiarity).
func DurationOf(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the instant with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	// Negate in uint64: in int64, -t overflows back to t for
	// math.MinInt64.
	sign, ns := "", uint64(t)
	if t < 0 {
		sign, ns = "-", -ns
	}
	switch {
	case ns < uint64(Microsecond):
		return fmt.Sprintf("%s%dns", sign, ns)
	case ns < uint64(Millisecond):
		return fmt.Sprintf("%s%.3fus", sign, float64(ns)/float64(Microsecond))
	case ns < uint64(Second):
		return fmt.Sprintf("%s%.3fms", sign, float64(ns)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.6fs", sign, float64(ns)/float64(Second))
	}
}
