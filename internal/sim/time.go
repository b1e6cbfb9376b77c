// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time advances in integer picoseconds so that both the host clock
// (1 ns resolution in the paper's testbed) and the 125 MHz FPGA fabric
// clock (8 ns period) are exactly representable. All scheduling is
// totally ordered by (time, sequence number), so a simulation run is a
// pure function of its inputs and RNG seeds.
package sim

import "fmt"

// Time is an absolute simulation timestamp in picoseconds.
type Time int64

// Duration is a span of simulated time in picoseconds.
type Duration int64

// Common duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Ns returns a Duration of n nanoseconds.
func Ns(n int64) Duration { return Duration(n) * Nanosecond }

// Us returns a Duration of n microseconds.
func Us(n int64) Duration { return Duration(n) * Microsecond }

// Ms returns a Duration of n milliseconds.
func Ms(n int64) Duration { return Duration(n) * Millisecond }

// NsF converts a floating-point nanosecond count to a Duration,
// rounding to the nearest picosecond.
func NsF(ns float64) Duration { return Duration(ns*1000 + 0.5) }

// Nanoseconds reports d as a floating-point number of nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / float64(Nanosecond) }

// Microseconds reports d as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats a Duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Nanosecond:
		return fmt.Sprintf("%dps", int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%.3gns", d.Nanoseconds())
	case d < Millisecond:
		return fmt.Sprintf("%.4gus", d.Microseconds())
	default:
		return fmt.Sprintf("%.6gms", float64(d)/float64(Millisecond))
	}
}

// Nanoseconds reports t as a floating-point nanosecond timestamp.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point microsecond timestamp.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Add offsets a timestamp by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Quantize rounds t down to a multiple of step (e.g. an 8 ns hardware
// counter tick). step must be positive.
func (t Time) Quantize(step Duration) Time {
	if step <= 0 {
		panic("sim: Quantize step must be positive")
	}
	return t - t%Time(step)
}

// String formats the timestamp in microseconds.
func (t Time) String() string { return fmt.Sprintf("t=%.3fus", t.Microseconds()) }
