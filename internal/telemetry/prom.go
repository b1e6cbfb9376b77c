package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for metric snapshots, so
// `fvbench -serve` can stream live run state to curl or an actual
// scraper without any dependency. Canonical dotted metric names map to
// Prometheus conventions by replacing '.' and '-' with '_'
// ("driver.virtio.doorbells" -> "driver_virtio_doorbells").

// promName sanitizes a canonical metric name for the exposition
// format.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '-':
			return '_'
		}
		return r
	}, name)
}

// WritePrometheus renders the snapshots in Prometheus text exposition
// format. Counters and gauges become single samples; HDR histograms
// become cumulative `_bucket{le=...}` series over their non-empty
// buckets, closed by the mandatory +Inf bucket, with the standard
// `_sum` and `_count` children. Snapshot order is preserved
// (Registry.Snapshot already sorts by name).
func WritePrometheus(w io.Writer, snaps []MetricSnapshot) error {
	for _, s := range snaps {
		name := promName(s.Name)
		switch s.Type {
		case "counter":
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %g\n", name, name, s.Value); err != nil {
				return err
			}
		case "gauge":
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, s.Value); err != nil {
				return err
			}
		case "hdrhistogram":
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			var cum int64
			for _, b := range s.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b.UpperBound, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
