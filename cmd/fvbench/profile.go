package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles arms the requested runtime/pprof collectors and returns
// an idempotent stop function that flushes them. Profiles cover the
// whole run, including the sweep workers, so -cpuprofile with
// -parallel shows the fan-out and -blockprofile shows where workers
// wait on the claim counter or result merge.
func startProfiles(cpu, heap, block string) (func(), error) {
	var stops []func() error
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
		stops = append(stops, func() error {
			return writeProfile("block", block)
		})
	}
	if heap != "" {
		stops = append(stops, func() error {
			runtime.GC() // settle live-heap accounting before the snapshot
			return writeProfile("heap", heap)
		})
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		for _, stop := range stops {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "fvbench: profile:", err)
			}
		}
	}, nil
}

// writeProfile dumps one named pprof profile to path.
func writeProfile(name, path string) error {
	if err := writeFile(path, func(w io.Writer) error { return pprof.Lookup(name).WriteTo(w, 0) }); err != nil {
		return fmt.Errorf("%sprofile: %w", name, err)
	}
	return nil
}
