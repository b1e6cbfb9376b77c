package main

import (
	"fmt"
	"io"
	"os"

	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/telemetry"
)

// exportArtifact writes a latency-mode experiment's artifact as
// requested by the -json/-csv flags.
func exportArtifact(art *telemetry.BenchArtifact, jsonPath, csvPath string, fail func(error)) {
	if jsonPath != "" {
		if err := writeArtifactJSON(jsonPath, art); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvbench: wrote %s (%d points, schema %s)\n", jsonPath, len(art.Points), art.Schema)
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(w io.Writer) error { return telemetry.WriteBenchCSV(w, art) }); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvbench: wrote %s (%d points)\n", csvPath, len(art.Points))
	}
}

// exportThroughput writes the throughput run's artifacts.
func exportThroughput(m *experiments.ThroughputMode, jsonPath, csvPath string, fail func(error)) {
	art := experiments.BuildThroughputArtifact(m)
	if jsonPath != "" {
		if err := writeArtifactJSON(jsonPath, art); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvbench: wrote %s (%d throughput points, %d latency points, schema %s)\n",
			jsonPath, len(art.Throughput), len(art.Points), art.Schema)
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(w io.Writer) error { return telemetry.WriteThroughputCSV(w, art) }); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "fvbench: wrote %s (%d throughput points)\n", csvPath, len(art.Throughput))
	}
}

// writeArtifactJSON writes art as JSON, then re-reads the file and
// validates it against the exporter schema, so a passing run
// guarantees a loadable file.
func writeArtifactJSON(path string, art *telemetry.BenchArtifact) error {
	if err := writeFile(path, func(w io.Writer) error { return telemetry.WriteBenchJSON(w, art) }); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := telemetry.ValidateBenchJSON(data); err != nil {
		return fmt.Errorf("artifact %s failed schema validation: %w", path, err)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps each sweep point's telemetry snapshot to stdout.
func writeMetrics(sw *experiments.Sweep, fail func(error)) {
	dump := func(pt *experiments.PointResult) {
		fmt.Printf("== metrics: %s/%dB ==\n", pt.Driver, pt.Payload)
		if err := telemetry.WriteMetricsCSV(os.Stdout, pt.Metrics); err != nil {
			fail(err)
		}
	}
	for i := range sw.VirtIO {
		dump(sw.VirtIO[i])
		if i < len(sw.XDMA) {
			dump(sw.XDMA[i])
		}
	}
}
