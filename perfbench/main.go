// Command perfbench is the repository benchmark. It drives the public
// session API (OpenNet/OpenXDMA, PingSeries, RoundTripSeries, Stream,
// Registry, BusStats, FaultSummary) through one closed-loop workload,
// checks the outputs, and prints every metric by name with its unit.
//
//	perfbench --workload net-rtt --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times the workload for --seconds and reports the
// end-to-end metrics. With --trace 1 it spends the first half of the
// time untraced and the second half under a CPU profile with spans
// around every public call, and reports the per-layer metrics, the
// tracing overhead and the layer fold of the profile. The last line of
// standard output is the result as one JSON object; README.md lists
// the metrics and why each workload exists.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fpgavirtio/internal/telemetry"
)

// benchProcs is the GOMAXPROCS the benchmark runs at.
const benchProcs = 1

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	envProcs int // GOMAXPROCS before the benchmark pinned it
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (net-rtt, xdma-rtt, net-stream, poll-chaos)")
	seed := fs.Uint64("seed", 1, "input seed: drives Config.Seed and the payload generator")
	seconds := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1 adds a profiled, span-traced half and reports per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the profile and spans of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "perfbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	procs := runtime.GOMAXPROCS(0)
	if cpus := runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "perfbench: GOMAXPROCS=%d exceeds the %d CPUs this process may use; refusing to run\n", procs, cpus)
		return 2
	}
	// A session's simulation is sequential: under the simulator's strict
	// hand-off one goroutine runs at a time, so one P is all a session
	// can use. A second P only adds cross-CPU wake-ups and spinning
	// threads, which widened the batch-time tail between runs on the
	// two-CPU reference host.
	runtime.GOMAXPROCS(benchProcs)
	defer runtime.GOMAXPROCS(procs)
	res, err := measure(options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, envProcs: procs})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// phase is a fixed number of boots sharing a time budget.
type phase struct {
	boots  []*boot
	groups []group
	pkts   int
	hostNs int64
}

func runPhase(w workload, seed uint64, p plan, d time.Duration, boots int, tr *tracer, cal *calibrator) (*phase, error) {
	ph := &phase{groups: make([]group, 0, 1<<16)}
	start := time.Now()
	for i := 1; i <= boots; i++ {
		deadline := start.Add(d * time.Duration(i) / time.Duration(boots))
		b, err := runBoot(w, seed, p, deadline, tr, cal, &ph.groups)
		if err != nil {
			return nil, err
		}
		ph.boots = append(ph.boots, b)
		ph.pkts += b.pkts
		ph.hostNs += b.hostNs
	}
	return ph, nil
}

func (ph *phase) pktsPerSec() float64 { return ratio(float64(ph.pkts)*1e9, float64(ph.hostNs)) }

// result is one run's outcome, ready to print.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	order             []metric
	context           map[string]any
}

func measure(o options) (*result, error) {
	w := o.workload
	p := genPlan(o.seed, w.batches, w.checks, w.fixedSize)
	total := time.Duration(o.seconds * float64(time.Second))
	untracedTime, untracedBoots := total, 10
	if o.trace {
		untracedTime, untracedBoots = total/2, 4
	}
	cal := newCalibrator()
	base, err := runPhase(w, o.seed, p, untracedTime, untracedBoots, nil, cal)
	cal.stop()
	if err != nil {
		return nil, err
	}
	phases := []*phase{base}

	res := &result{correct: true, metrics: map[string]float64{}}
	ctx := map[string]any{
		"workload":          w.name,
		"seed":              o.seed,
		"trace":             o.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"gomaxprocs_env":    o.envProcs,
		"go":                runtime.Version(),
		"batch_pkts":        w.batchPkts,
		"batches_per_round": w.batches,
		"boots_untraced":    len(base.boots),
	}
	res.context = ctx

	var traced *phase
	var fold *layerFold
	if o.trace {
		traced, fold, err = tracedPhase(w, o, p, total-untracedTime, untracedBoots)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		ctx["boots_traced"] = len(traced.boots)
	}

	// Determinism: every boot's first round, traced or not, must have
	// produced the same simulated record as the first boot's.
	ref := base.boots[0].sim
	ctx["digest"] = ref.digest
	var errs []string
	for _, ph := range phases {
		for i, b := range ph.boots {
			res.attempted += b.attempted
			res.failed += b.failed
			errs = append(errs, b.errs...)
			if b.sim.digest != ref.digest {
				res.correct = false
				errs = append(errs, fmt.Sprintf("boot %d: simulated digest %s differs from %s", i, b.sim.digest, ref.digest))
			}
		}
	}
	if res.failed > 0 {
		res.correct = false
	}
	if len(errs) > 5 {
		errs = append(errs[:5], fmt.Sprintf("... %d more", len(errs)-5))
	}
	ctx["errors"] = errs

	if rss, err := maxRSSMB(); err == nil {
		ctx["max_rss_mb"] = rss
	}
	if o.trace {
		res.order = perLayer
		res.layerMetrics(base, traced, fold)
	} else {
		res.order = endToEnd
		res.endToEndMetrics(base)
	}
	return res, nil
}

// endToEndMetrics fills the tracing-off metrics from the untraced phase.
func (res *result) endToEndMetrics(ph *phase) {
	m := res.metrics
	var pkts, refNs float64
	var perPkt, rawPerPkt []float64
	for _, g := range smooth(ph.groups) {
		pkts += float64(g.pkts)
		refNs += atRef(g.ns, g.calNs)
		perPkt = append(perPkt, atRef(g.ns, g.calNs)/float64(g.pkts)/1e3)
		rawPerPkt = append(rawPerPkt, float64(g.ns)/float64(g.pkts)/1e3)
	}
	m["pkts_per_s"] = ratio(pkts*1e9, refNs)
	perPkt = sortedCopy(perPkt)
	rawPerPkt = sortedCopy(rawPerPkt)
	m["host_us_per_pkt_p50"] = quantile(perPkt, 0.5)
	m["host_us_per_pkt_p99"] = quantile(perPkt, 0.99)
	// The uncalibrated figures, for comparison on the same host.
	res.context["raw"] = []float64{ph.pktsPerSec(), quantile(rawPerPkt, 0.5), quantile(rawPerPkt, 0.99)}

	var setups []float64
	var heap uint64
	for _, b := range ph.boots {
		setups = append(setups, atRef(int64(b.setup), b.setupCalNs)/1e9)
		heap = max(heap, b.heap)
	}
	m["setup_s"] = quantile(sortedCopy(setups), 0.5)
	m["host_mem_mb"] = float64(heap) / (1 << 20)

	sim := ph.boots[0].sim
	lat := simLatencies(sim)
	m["sim_rtt_p50_us"] = quantile(lat, 0.5)
	m["sim_rtt_p99_us"] = quantile(lat, 0.99)
	m["sim_pps"] = simPPS(sim)
	m["ok_ratio"] = 1 - ratio(float64(res.failed), float64(res.attempted))

	res.context["samples"] = map[string]int{
		"pkts_per_s":          int(pkts),
		"host_us_per_pkt_p50": len(perPkt),
		"host_us_per_pkt_p99": len(perPkt),
		"setup_s":             len(setups),
		"host_mem_mb":         len(ph.boots),
		"sim_rtt_p50_us":      len(lat),
		"sim_rtt_p99_us":      len(lat),
		"sim_pps":             max(len(sim.rtt), len(sim.streams)),
		"ok_ratio":            res.attempted,
	}
}

// simLatencies returns the round's simulated per-packet latencies in
// microseconds, sorted. Window-1 workloads report each round trip's
// RTTSample.Total. A windowed stream has no per-packet sample, so each
// stream batch contributes its mean time in flight by Little's law:
// mean occupancy × elapsed ÷ packets.
func simLatencies(s simRecord) []float64 {
	var out []float64
	for _, x := range s.rtt {
		out = append(out, float64(x.Total.Nanoseconds())/1e3)
	}
	for _, x := range s.streams {
		out = append(out, x.OccupancyMean*float64(x.Elapsed.Nanoseconds())/float64(x.Packets)/1e3)
	}
	return sortedCopy(out)
}

// simPPS is simulated packets per simulated second: over the streams'
// elapsed time, or for window-1 workloads over the summed round trips.
func simPPS(s simRecord) float64 {
	var pkts, ns float64
	for _, x := range s.rtt {
		pkts++
		ns += float64(x.Total.Nanoseconds())
	}
	for _, x := range s.streams {
		pkts += float64(x.Packets)
		ns += float64(x.Elapsed.Nanoseconds())
	}
	return ratio(pkts*1e9, ns)
}

// layerMetrics fills the per-layer metrics: the profile fold of the
// traced phase, and the simulated counts of one round.
func (res *result) layerMetrics(base, traced *phase, fold *layerFold) {
	m := res.metrics
	tracedPkts := float64(traced.pkts)
	var sum float64
	for _, l := range layers {
		v := ratio(float64(fold.ns[l]), tracedPkts)
		m[l+".host_ns_per_pkt"] = v
		sum += v
	}
	m["other.host_share"] = ratio(m["other.host_ns_per_pkt"], sum)
	m["trace.cpu_ns_per_pkt"] = ratio(float64(fold.cpuNs), tracedPkts)
	m["trace.layer_sum_ratio"] = ratio(sum, m["trace.cpu_ns_per_pkt"])
	m["trace.profile_samples"] = float64(fold.samples)
	m["trace.untraced_pkts_per_s"] = base.pktsPerSec()
	m["trace.traced_pkts_per_s"] = traced.pktsPerSec()
	m["trace.overhead_ratio"] = ratio(m["trace.untraced_pkts_per_s"], m["trace.traced_pkts_per_s"])

	s := base.boots[0].sim
	pkts := float64(s.pkts)
	c := func(name string) float64 { return s.counters[name] }
	per := func(v float64) float64 { return ratio(v, pkts) }
	fired := c(telemetry.MetricSimEventsFired)
	m["sim.events_per_pkt"] = per(fired)
	m["sim.queue_depth_max"] = s.gauges[telemetry.MetricSimQueueDepthMax]
	m["sim.host_ns_per_event"] = ratio(float64(base.hostNs)/float64(base.pkts), per(fired))
	m["pcie.tlps_per_pkt"] = per(float64(s.bus.DownTLPs + s.bus.UpTLPs))
	m["pcie.bytes_per_pkt"] = per(float64(s.bus.DownBytes + s.bus.UpBytes))
	m["pcie.cpl_errors"] = c(telemetry.MetricPCIeCplErrors)
	m["vdev.notifies_per_pkt"] = per(c(telemetry.MetricVdevNotifies))
	m["vdev.irqs_raised_per_pkt"] = per(c(telemetry.MetricVdevIRQsRaised))
	elided := c(telemetry.MetricVirtioKicksElided)
	m["virtio.kicks_elided_ratio"] = ratio(elided, elided+c(telemetry.MetricVirtioDoorbells))
	// Every device-initiated read goes through xdmaip: the VirtIO
	// controller's direct port or a vendor H2C engine. The read
	// requests are the upstream MRd TLPs; the bytes are the payload the
	// port and the H2C engines fetched.
	m["xdmaip.dma_reads_per_pkt"] = per(c(telemetry.MetricPCIeUpTLP("MRd")))
	readBytes := c(telemetry.MetricDMAPortReadBytes)
	for name, v := range s.counters {
		if strings.HasPrefix(name, "dma-engine.h2c") && strings.HasSuffix(name, ".bytes") {
			readBytes += v
		}
	}
	m["xdmaip.dma_read_bytes_per_pkt"] = per(readBytes)
	m["hostos.syscalls_per_pkt"] = per(c(telemetry.MetricHostSyscalls))
	m["hostos.irqs_per_pkt"] = per(c(telemetry.MetricHostIRQsDelivered))
	m["hostos.wakeups_per_pkt"] = per(c(telemetry.MetricHostWakeups))
	spins := c(telemetry.MetricPollSpins)
	m["hostos.poll_spins_per_pkt"] = per(spins)
	m["hostos.poll_wasted_ratio"] = ratio(c(telemetry.MetricPollWasted), spins)
	m["hostos.poll_burn_us_per_pkt"] = per(c(telemetry.MetricPollBurnNs)) / 1e3
	m["netstack.rx_dropped"] = c(telemetry.MetricNetstackRxDropped)
	m["netstack.csum_sw_bytes_per_pkt"] = per(c(telemetry.MetricNetstackCsumBytes))
	var hw, tot float64
	for _, x := range s.rtt {
		hw += float64(x.Hardware)
		tot += float64(x.Total)
	}
	m["fpga.sim_hw_share"] = ratio(hw, tot)
	var injected float64
	for _, n := range s.faults {
		injected += float64(n)
	}
	rec := s.recovery
	recoveries := rec[telemetry.MetricRecoveryVirtioResets] + rec[telemetry.MetricRecoveryVirtioWatchd] +
		rec[telemetry.MetricRecoveryXDMAResets] + rec[telemetry.MetricRecoveryXDMAWatchdog] +
		rec[telemetry.MetricRecoveryMMIORetries]
	m["faults.injected"] = injected
	m["drivers.recoveries"] = recoveries
	m["drivers.retries"] = rec[telemetry.MetricRecoveryXDMAResubmits] + rec[telemetry.MetricRecoveryVirtioRequeue]
	m["drivers.recovered_ratio"] = ratio(recoveries, injected)
	m["telemetry.recorder_spans_per_pkt"] = per(c(telemetry.MetricRecorderSpansCaptured))
	m["telemetry.recorder_dumps"] = c(telemetry.MetricRecorderDumps)
	var mallocs, roundPkts float64
	for _, b := range base.boots {
		mallocs += float64(b.mallocs)
		roundPkts += float64(b.sim.pkts)
	}
	m["session.allocs_per_pkt"] = ratio(mallocs, roundPkts)

	res.context["samples"] = map[string]int{
		"profile":        fold.samples,
		"traced_pkts":    traced.pkts,
		"untraced_pkts":  base.pkts,
		"counts_of_pkts": s.pkts,
	}
	res.context["faults"] = s.faults
	res.context["recovery"] = s.recovery
}

// layerFold is the traced phase's CPU profile folded into layers,
// beside the process CPU time the phase consumed.
type layerFold struct {
	ns      map[string]int64
	samples int
	cpuNs   int64
}

// tracedPhase runs boots for d under a CPU profile, with spans around
// every public call, writes both out, and folds the profile.
func tracedPhase(w workload, o options, p plan, d time.Duration, boots int) (*phase, *layerFold, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	stem := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	tr := newTracer()
	var prof bytes.Buffer
	cpu0, err := processCPU()
	if err != nil {
		return nil, nil, err
	}
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	ph, err := runPhase(w, o.seed, p, d, boots, tr, nil)
	pprof.StopCPUProfile()
	cpu1, cerr := processCPU()
	if err = errors.Join(err, cerr); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if err := tr.write(stem + ".spans.jsonl"); err != nil {
		return nil, nil, err
	}
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	fold := &layerFold{ns: map[string]int64{}, cpuNs: cpu1 - cpu0}
	for _, s := range cp.samples {
		fold.ns[foldStack(s.stack)] += s.ns
		fold.samples += s.count
	}
	return ph, fold, nil
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// print writes a metric table, the host-context record and, as the
// last line, the result object.
func (res *result) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.order {
		v := res.metrics[m.name]
		out.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(w, "%-34s %16.6g %-6s %s is better\n", m.name, v, m.unit, m.better)
	}
	ctx, err := json.Marshal(map[string]any{"context": res.context})
	if err != nil {
		return err
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", ctx, last)
	return err
}
