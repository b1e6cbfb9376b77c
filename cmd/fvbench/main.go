// Command fvbench regenerates the paper's evaluation artifacts
// (Figures 3-5, Table I) and the extension studies from DESIGN.md on
// the simulated testbed.
//
// Usage:
//
//	fvbench [flags] <experiment>          (default -mode=latency)
//	fvbench -mode=throughput [flags]
//
// Experiments (latency mode):
//
//	fig3      E1: round-trip latency distribution (VirtIO vs XDMA)
//	fig4      E2: VirtIO latency breakdown (software vs hardware)
//	fig5      E3: XDMA latency breakdown
//	table1    E4: tail latencies (95/99/99.9%)
//	all       fig3+fig4+fig5+table1 from one sweep
//	offload   E5: checksum-offload ablation
//	ablate-irq E6: interrupt/notification ablation
//	bypass    E7: host-bypass interface vs driver path
//	porta     E8: device-type and link portability
//	eventidx  E9: EVENT_IDX vs flag-based notification suppression
//	osprofiles E10: desktop/server/PREEMPT_RT host comparison
//	throughput E11: pipelined (VirtIO) vs serial (XDMA) throughput
//	ringformat E12: split vs packed virtqueue format
//	polltrade E13: poll vs interrupt datapaths, latency-vs-CPU trade
//
// Throughput mode streams a fixed packet count through a window of
// in-flight requests per driver: the VirtIO path with and without kick
// suppression (EVENT_IDX + batched TX kicks + coalesced interrupts vs
// per-packet doorbells) and the XDMA path with chained descriptor
// lists, plus the window=1 degenerate runs that reproduce the latency
// experiment through the same engine.
//
// Flags:
//
//	-n        packets per point (default 50000, the paper's count)
//	-packets  alias of -n
//	-seed     RNG seed (default 1)
//	-poll     run every measured session on the busy-poll datapath
//	          (no MSI-X / used-ring interrupts; spin-loop completion
//	          detection). Points are tagged datapath="poll" in the
//	          artifacts. Applies to both modes.
//	-gen3     use a Gen3 x4 link instead of the testbed's Gen2 x2
//	-hist     print per-point latency histograms with fig3
//	-payloads comma-separated payload sizes (default: the paper's sweep)
//	-sizes    alias of -payloads
//	-faults   fault-injection plan armed in every measured session
//	          (class[:p=..][:every=N][:after=N][:count=N], comma-
//	          separated; sweep experiments only). Faulted samples are
//	          flagged, excluded from percentiles, and summarized after
//	          the run; the artifact gains a "faults" section.
//	-mode     latency (default) or throughput
//	-window   throughput mode: in-flight request window (default 16)
//	-qpairs   throughput mode: virtio-net queue pairs (default 1)
//	-rate     throughput mode: offered rate in packets/s (0 = closed loop)
//	-json     write the run as a validated bench artifact
//	-csv      write the run as CSV
//	-metrics  dump each point's telemetry metric snapshot to stdout
//	-flightdir write each point's flight-recorder dumps (worst-RTT and
//	          per-fault-class post-mortems) as Chrome trace JSON files
//	          under this directory (sweep experiments only)
//	-serve    serve live run metrics in Prometheus text format at this
//	          address (e.g. :9090) while the sweep runs; each finished
//	          point's counters merge into the exposition
//	-parallel latency-mode sweep workers (default GOMAXPROCS); results
//	          are byte-identical at any count, 1 is the serial path
//	-cpuprofile / -memprofile / -blockprofile
//	          write runtime/pprof profiles covering the whole run
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/faults"
)

func main() {
	n := flag.Int("n", 50000, "packets per measurement point")
	packets := flag.Int("packets", 0, "alias of -n")
	seed := flag.Uint64("seed", 1, "RNG seed")
	poll := flag.Bool("poll", false, "busy-poll datapath: no interrupts, spin-loop completion detection")
	gen3 := flag.Bool("gen3", false, "use a Gen3 x4 link")
	hist := flag.Bool("hist", false, "print latency histograms (fig3)")
	payloads := flag.String("payloads", "", "comma-separated payload sizes overriding the paper's 64..1024 sweep (e.g. 64,512,1458)")
	sizes := flag.String("sizes", "", "alias of -payloads")
	mode := flag.String("mode", "latency", "latency (paper experiments) or throughput (windowed streaming)")
	window := flag.Int("window", 16, "throughput mode: in-flight request window")
	qpairs := flag.Int("qpairs", 1, "throughput mode: virtio-net queue pairs")
	rate := flag.Float64("rate", 0, "throughput mode: offered rate in packets/s (0 = closed loop)")
	faultsPlan := flag.String("faults", "", "fault-injection plan, e.g. needsreset:every=120:count=4,irqdrop:p=0.001 (sweep experiments only)")
	jsonPath := flag.String("json", "", "write the run's bench artifact as JSON to this file")
	csvPath := flag.String("csv", "", "write the run's bench artifact as CSV to this file")
	metrics := flag.Bool("metrics", false, "dump per-point telemetry metric snapshots to stdout")
	flightDir := flag.String("flightdir", "", "write each point's flight-recorder dumps as Chrome trace JSON under this directory")
	serveAddr := flag.String("serve", "", "serve live run metrics in Prometheus text format at this address (e.g. :9090) for the duration of the sweep")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker goroutines; results are byte-identical at any count (1 = today's serial path)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine-blocking profile to this file on exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fvbench [flags] %s\n", namesWhere(func(experiments.Entry) bool { return true }))
		fmt.Fprintf(os.Stderr, "       fvbench -mode=throughput [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, *blockprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		os.Exit(1)
	}

	usageErr := func(format string, args ...any) {
		stopProfiles()
		fmt.Fprintf(os.Stderr, "fvbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["packets"] {
		*n = *packets
	}
	if err := validatePackets(*n); err != nil {
		usageErr("%v", err)
	}

	p := experiments.Params{Seed: *seed, Packets: *n, PollMode: *poll}
	if *gen3 {
		p.Link = fpgavirtio.Gen3x4
	}
	if *faultsPlan != "" {
		if _, err := faults.Parse(*faultsPlan); err != nil {
			usageErr("%v", err)
		}
		p.Faults = *faultsPlan
	}
	sizesArg := *payloads
	if set["sizes"] {
		sizesArg = *sizes
	}
	if sizesArg != "" || set["sizes"] || set["payloads"] {
		v, err := parseSizes(sizesArg)
		if err != nil {
			usageErr("%v", err)
		}
		p.Payloads = v
	}

	fail := func(err error) {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		os.Exit(1)
	}
	if *parallel < 1 {
		usageErr("-parallel must be >= 1 (got %d)", *parallel)
	}

	switch *mode {
	case "latency":
		if set["window"] || set["qpairs"] || set["rate"] {
			usageErr("-window/-qpairs/-rate apply to -mode=throughput")
		}
		runLatency(p, *parallel, *hist, *jsonPath, *csvPath, *metrics, *flightDir, *serveAddr, usageErr, fail)
	case "throughput":
		if flag.NArg() != 0 {
			usageErr("-mode=throughput takes no experiment argument (got %q)", flag.Arg(0))
		}
		if *hist || *metrics {
			usageErr("-hist/-metrics apply to -mode=latency")
		}
		if *flightDir != "" || *serveAddr != "" {
			usageErr("-flightdir/-serve apply to the latency-mode sweep experiments")
		}
		if p.Faults != "" {
			usageErr("-faults applies to the latency-mode sweep experiments")
		}
		if set["parallel"] {
			usageErr("-parallel applies to the latency-mode sweep")
		}
		if err := validateStreamFlags(*window, *qpairs, *rate); err != nil {
			usageErr("%v", err)
		}
		tp := experiments.ThroughputParams{Params: p, Window: *window, QueuePairs: *qpairs, RatePPS: *rate}
		fmt.Fprintf(os.Stderr, "fvbench: streaming %d packets x %d payloads, window %d...\n",
			tp.Packets, payloadCount(p), *window)
		m, err := experiments.RunThroughputMode(tp)
		if err != nil {
			fail(err)
		}
		exportThroughput(m, *jsonPath, *csvPath, fail)
		fmt.Print(m.Render())
	default:
		usageErr("unknown mode %q (latency|throughput)", *mode)
	}
	stopProfiles()
}

func payloadCount(p experiments.Params) int {
	if len(p.Payloads) > 0 {
		return len(p.Payloads)
	}
	return len(experiments.DefaultPayloads)
}

// runLatency runs the default-mode experiment named by the argument.
func runLatency(p experiments.Params, parallel int, hist bool, jsonPath, csvPath string, metrics bool,
	flightDir, serveAddr string, usageErr func(string, ...any), fail func(error)) {
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	// An unknown name meets the flag checks first, as a study with no
	// sweep and no artifact, and then the usage text.
	e, known := experiments.Lookup(flag.Arg(0))
	used := map[string]bool{"json": jsonPath != "", "csv": csvPath != "", "metrics": metrics,
		"flightdir": flightDir != "", "serve": serveAddr != "", "faults": p.Faults != ""}
	if err := validateExperimentFlags(e, used); err != nil {
		usageErr("%v", err)
	}
	if !known {
		flag.Usage()
		os.Exit(2)
	}

	var sw *experiments.Sweep
	if e.Sweep {
		sw = runSweep(p, parallel, serveAddr, fail)
	}
	r, art, err := e.Run(p, sw)
	if err != nil {
		fail(err)
	}
	if art != nil {
		exportArtifact(art, jsonPath, csvPath, fail)
	}
	if sw != nil {
		if metrics {
			writeMetrics(sw, fail)
		}
		if flightDir != "" {
			writeFlightDumps(sw, flightDir, fail)
		}
		if report := experiments.RenderFaultReport(sw); report != "" {
			fmt.Fprint(os.Stderr, report)
		}
		fmt.Fprint(os.Stderr, experiments.RenderTailReport(sw))
	}
	fmt.Print(r.Render())
	if _, fig3 := r.(*experiments.Fig3); fig3 && hist {
		for i := range sw.VirtIO {
			fmt.Printf("\n%d B VirtIO:\n%s", sw.VirtIO[i].Payload, sw.VirtIO[i].Total.Histogram(16, 50))
			fmt.Printf("\n%d B XDMA:\n%s", sw.XDMA[i].Payload, sw.XDMA[i].Total.Histogram(16, 50))
		}
	}
}

// runSweep measures the shared sweep, serving live metrics while it
// runs when serveAddr is set, and attributes its tail samples. The
// replay runs outside every timed section and cannot perturb the
// measurements; it comes before the export, so the JSON artifact
// carries the tail_attribution block.
func runSweep(p experiments.Params, parallel int, serveAddr string, fail func(error)) *experiments.Sweep {
	fmt.Fprintf(os.Stderr, "fvbench: sweeping %d packets x %d payloads x 2 drivers (%d workers)...\n",
		p.Packets, payloadCount(p), parallel)
	var progress func(experiments.SweepProgress)
	if serveAddr != "" {
		srv, err := startMetricsServer(serveAddr, 2*payloadCount(p))
		if err != nil {
			fail(err)
		}
		defer srv.stop()
		progress = srv.observe
	}
	sw, err := experiments.RunSweepParallelWithProgress(p, parallel, progress)
	if err != nil {
		fail(err)
	}
	if err := experiments.AttributeTails(sw); err != nil {
		fail(err)
	}
	return sw
}
