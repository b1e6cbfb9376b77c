package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/telemetry"
)

// writeFlightDumps renders every point's flight-recorder dumps as
// Chrome trace-event JSON under dir, one file per dump:
//
//	flight_<driver>_<payload>B_<reason>.json
//
// Each file holds the span ring as it stood at the trigger — the last
// couple thousand spans before a fault recovery or a new worst-case
// RTT — loadable in Perfetto or chrome://tracing.
func writeFlightDumps(sw *experiments.Sweep, dir string, fail func(error)) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	count := 0
	points := append(append([]*experiments.PointResult{}, sw.VirtIO...), sw.XDMA...)
	for _, pt := range points {
		if pt == nil {
			continue
		}
		for _, d := range pt.FlightDumps {
			name := fmt.Sprintf("flight_%s_%dB_%s.json", pt.Driver, pt.Payload, sanitizeReason(d.Reason))
			err := writeFile(filepath.Join(dir, name), func(w io.Writer) error {
				return telemetry.WriteChromeTrace(w, telemetry.DumpSpans(d), nil)
			})
			if err != nil {
				fail(err)
			}
			count++
		}
	}
	fmt.Fprintf(os.Stderr, "fvbench: wrote %d flight dumps to %s\n", count, dir)
}

// sanitizeReason maps a dump reason ("fault:needsreset", "worst-rtt")
// to a filename-safe token.
func sanitizeReason(reason string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, reason)
}
