package main

import "time"

// calibRoundTrips is the work of one calibration measurement.
const calibRoundTrips = 1000

// refCalibNs is what one calibration measurement takes on the
// reference host (a two-vCPU KVM guest on an Intel Xeon) in its fast
// phase. Host times are reported at that speed.
const refCalibNs = 450_000

// calibrator measures how fast the host runs right now with a fixed
// kernel: goroutine hand-offs over unbuffered channels, the operation
// that dominates the simulator's own host time. On a host whose speed
// drifts (frequency changes, a busy sibling thread), dividing a
// measured time by the calibration taken beside it cancels the drift;
// the kernel is benchmark code, so a change to the program cannot
// speed it up.
type calibrator struct {
	ping, pong chan struct{}
	done       chan struct{}
}

func newCalibrator() *calibrator {
	c := &calibrator{ping: make(chan struct{}), pong: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for range c.ping {
			c.pong <- struct{}{}
		}
	}()
	return c
}

// measure runs the kernel once and returns its wall time.
func (c *calibrator) measure() int64 {
	t0 := time.Now()
	for i := 0; i < calibRoundTrips; i++ {
		c.ping <- struct{}{}
		<-c.pong
	}
	return int64(time.Since(t0))
}

// median runs the kernel n times and returns the median time.
func (c *calibrator) median(n int) int64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(c.measure())
	}
	return int64(quantile(sortedCopy(ts), 0.5))
}

// smooth replaces each group's calibration with the median of the 25
// calibrations around it (about a quarter second of groups). Host
// speed drifts over seconds, while one calibration is a 0.5 ms sample
// with noise of its own; the window keeps the drift and drops that
// noise.
func smooth(groups []group) []group {
	const half = 12
	out := make([]group, len(groups))
	for i, g := range groups {
		lo, hi := max(0, i-half), min(len(groups), i+half+1)
		ws := make([]float64, 0, hi-lo)
		for _, w := range groups[lo:hi] {
			ws = append(ws, float64(w.calNs))
		}
		g.calNs = int64(quantile(sortedCopy(ws), 0.5))
		out[i] = g
	}
	return out
}

// stop ends the echo goroutine and waits for it.
func (c *calibrator) stop() {
	close(c.ping)
	<-c.done
}

// atRef scales a host time measured beside calibration calNs to the
// reference host's speed.
func atRef(ns, calNs int64) float64 {
	return float64(ns) * refCalibNs / float64(calNs)
}
