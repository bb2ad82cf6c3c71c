// Package sim provides a deterministic discrete-event simulation engine
// used as the substrate for the Spider parallel file system models.
//
// The engine is event-driven rather than goroutine-per-entity: all model
// code runs on the caller's goroutine inside event callbacks, which makes
// runs bit-for-bit reproducible and keeps scenarios with tens of
// thousands of entities tractable on a single core.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on the simulation clock, in nanoseconds since the start
// of the run. It is also used for durations; the zero value is the start
// of simulated time.
type Time int64

// Common durations, mirroring package time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// MaxTime is the farthest representable instant (~292 simulated years).
// RunFor and FromSeconds saturate here instead of wrapping.
const MaxTime Time = 1<<63 - 1

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
// Negative and NaN inputs are clamped to zero; inputs beyond MaxTime,
// +Inf included, saturate at MaxTime.
func FromSeconds(s float64) Time {
	if !(s > 0) {
		return 0
	}
	ns := s * float64(Second)
	if ns >= float64(MaxTime) {
		return MaxTime
	}
	return Time(ns)
}

// String renders the time with an adaptive unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t == math.MinInt64:
		// -t overflows back to t; render the magnitude in hours directly.
		return fmt.Sprintf("-%.2fh", -float64(t)/float64(Hour))
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t < Minute:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t < Hour:
		return fmt.Sprintf("%.2fmin", float64(t)/float64(Minute))
	default:
		return fmt.Sprintf("%.2fh", float64(t)/float64(Hour))
	}
}
