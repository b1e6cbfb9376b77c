package main

import (
	"fmt"
	"strconv"
	"strings"

	"fpgavirtio/internal/experiments"
)

const (
	// maxPayloadBytes is the absolute -sizes/-payloads bound: nothing in
	// either driver path moves more than 64 KB per packet.
	maxPayloadBytes = 64 << 10
	// maxUDPPayload is the VirtIO path's MTU-bound UDP payload; every
	// experiment drives the VirtIO side, so it is the effective cap.
	maxUDPPayload = 1458
	// maxWindow is the XDMA descriptor-list limit, the tighter of the
	// two paths' in-flight bounds.
	maxWindow = 256
	// maxQueuePairs bounds -qpairs to the controller's MSI-X budget.
	maxQueuePairs = 16
)

// parseSizes parses a -sizes/-payloads list, rejecting nonsense: empty
// fields, non-integers, zero, negatives, anything above 64 KB (and,
// tighter, above the VirtIO UDP payload cap).
func parseSizes(arg string) ([]int, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, fmt.Errorf("empty payload size list")
	}
	var out []int
	for _, field := range strings.Split(arg, ",") {
		field = strings.TrimSpace(field)
		v, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad payload size %q: not an integer", field)
		}
		if v < 1 || v > maxPayloadBytes {
			return nil, fmt.Errorf("payload size %d out of range: want 1..%d bytes", v, maxPayloadBytes)
		}
		if v > maxUDPPayload {
			return nil, fmt.Errorf("payload size %d exceeds the VirtIO UDP payload cap of %d bytes", v, maxUDPPayload)
		}
		out = append(out, v)
	}
	return out, nil
}

// validatePackets rejects nonsense -packets/-n counts.
func validatePackets(n int) error {
	if n < 1 {
		return fmt.Errorf("packet count %d out of range: want >= 1", n)
	}
	return nil
}

// validateStreamFlags rejects nonsense throughput-mode knobs.
func validateStreamFlags(window, qpairs int, rate float64) error {
	if window < 1 || window > maxWindow {
		return fmt.Errorf("window %d out of range: want 1..%d", window, maxWindow)
	}
	if qpairs < 1 || qpairs > maxQueuePairs {
		return fmt.Errorf("qpairs %d out of range: want 1..%d", qpairs, maxQueuePairs)
	}
	if rate < 0 {
		return fmt.Errorf("rate %g out of range: want >= 0 packets/s", rate)
	}
	return nil
}

// validateExperimentFlags rejects latency-mode flags that do not apply
// to experiment e: -json/-csv need an artifact, and -metrics,
// -flightdir, -serve and -faults need a sweep entry. used holds each
// of those flags given a non-empty value.
func validateExperimentFlags(e experiments.Entry, used map[string]bool) error {
	sweeps := "the sweep experiments (" + namesWhere(func(e experiments.Entry) bool { return e.Sweep }) + ")"
	switch {
	case (used["json"] || used["csv"]) && !e.Artifact:
		others := namesWhere(func(e experiments.Entry) bool { return e.Artifact && !e.Sweep })
		return fmt.Errorf("-json/-csv apply to %s and %s, not %q", sweeps, others, e.Name)
	case used["metrics"] && !e.Sweep:
		return fmt.Errorf("-metrics applies to %s, not %q", sweeps, e.Name)
	case (used["flightdir"] || used["serve"]) && !e.Sweep:
		return fmt.Errorf("-flightdir/-serve apply to %s, not %q", sweeps, e.Name)
	case used["faults"] && !e.Sweep:
		return fmt.Errorf("-faults applies to %s, not %q", sweeps, e.Name)
	}
	return nil
}

// namesWhere joins the names of the index entries that keep accepts.
func namesWhere(keep func(experiments.Entry) bool) string {
	var names []string
	for _, e := range experiments.Index {
		if keep(e) {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, "|")
}
