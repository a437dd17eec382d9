// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package in this repository runs on:
// protocol layers, schedulers, radio heads and channels are all expressed as
// events on a single virtual clock. Determinism is a hard requirement — two
// runs with the same seed must produce byte-identical traces — so the engine
// uses its own PRNG (no global rand), an event queue that is FIFO among
// equal timestamps, and virtual time represented as integer nanoseconds.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Virtual time is integral to keep event ordering exact; all
// protocol timing in 5G NR is expressible in integer nanoseconds (the basic
// time unit Tc of TS 38.211 is ~0.509 ns, but every duration used by this
// simulator — symbols, slots, cyclic prefixes — is an exact nanosecond
// multiple at the numerologies we support).
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so stdlib constants (time.Millisecond, …) convert directly.
type Duration = time.Duration

// Common durations, re-exported for readability at call sites.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Micros returns t in microseconds as a float, the unit used throughout the
// paper's tables and figures.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis returns t in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

func (t Time) String() string {
	return fmt.Sprintf("t=%.3fµs", t.Micros())
}

// Never is a sentinel for "no scheduled time".
const Never Time = -1
