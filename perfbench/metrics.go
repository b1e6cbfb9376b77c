package main

import (
	"math"
	"sort"
)

// metric describes one reported figure. End-to-end metrics carry the
// bound by which a later change may worsen them; per-layer metrics
// name their layer. The README table is the long form of this list.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only
	layer              string  // per-layer only
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are measured with tracing off; every workload reports all
// of them. Bounds are shares of the parent's median. Host times are at
// reference speed (calib.go).
var endToEnd = []metric{
	{name: "pkts_per_s", unit: "1/s", better: higher, bound: 0.2},
	{name: "host_us_per_pkt_p50", unit: "us", better: lower, bound: 0.25},
	{name: "host_us_per_pkt_p99", unit: "us", better: lower, bound: 0.25},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "host_mem_mb", unit: "MB", better: lower, bound: 0.1},
	{name: "sim_rtt_p50_us", unit: "us", better: lower, bound: 0.06},
	{name: "sim_rtt_p99_us", unit: "us", better: lower, bound: 0.1},
	{name: "sim_pps", unit: "1/s", better: higher, bound: 0.05},
	{name: "ok_ratio", unit: "ratio", better: higher, bound: 0.01},
}

// perLayer come from the traced run: the profile fold per layer, then
// the simulated per-layer counts (identical in traced and untraced
// rounds), then the trace's own bookkeeping.
var perLayer = func() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{name: l + ".host_ns_per_pkt", unit: "ns", better: lower, layer: l})
	}
	return append(out, []metric{
		{name: "other.host_share", unit: "ratio", better: lower, layer: "other"},
		{name: "sim.events_per_pkt", unit: "count", better: lower, layer: "sim"},
		{name: "sim.queue_depth_max", unit: "count", better: lower, layer: "sim"},
		{name: "sim.host_ns_per_event", unit: "ns", better: lower, layer: "sim"},
		{name: "pcie.tlps_per_pkt", unit: "count", better: lower, layer: "pcie"},
		{name: "pcie.bytes_per_pkt", unit: "B", better: lower, layer: "pcie"},
		{name: "pcie.cpl_errors", unit: "count", better: lower, layer: "pcie"},
		{name: "vdev.notifies_per_pkt", unit: "count", better: lower, layer: "vdev"},
		{name: "vdev.irqs_raised_per_pkt", unit: "count", better: lower, layer: "vdev"},
		{name: "virtio.kicks_elided_ratio", unit: "ratio", better: higher, layer: "virtio"},
		{name: "xdmaip.dma_reads_per_pkt", unit: "count", better: lower, layer: "xdmaip"},
		{name: "xdmaip.dma_read_bytes_per_pkt", unit: "B", better: lower, layer: "xdmaip"},
		{name: "hostos.syscalls_per_pkt", unit: "count", better: lower, layer: "hostos"},
		{name: "hostos.irqs_per_pkt", unit: "count", better: lower, layer: "hostos"},
		{name: "hostos.wakeups_per_pkt", unit: "count", better: lower, layer: "hostos"},
		{name: "hostos.poll_spins_per_pkt", unit: "count", better: lower, layer: "hostos"},
		{name: "hostos.poll_wasted_ratio", unit: "ratio", better: lower, layer: "hostos"},
		{name: "hostos.poll_burn_us_per_pkt", unit: "us", better: lower, layer: "hostos"},
		{name: "netstack.rx_dropped", unit: "count", better: lower, layer: "netstack"},
		{name: "netstack.csum_sw_bytes_per_pkt", unit: "B", better: lower, layer: "netstack"},
		{name: "fpga.sim_hw_share", unit: "ratio", better: lower, layer: "fpga"},
		{name: "faults.injected", unit: "count", better: lower, layer: "faults"},
		{name: "drivers.recoveries", unit: "count", better: lower, layer: "drivers"},
		{name: "drivers.retries", unit: "count", better: lower, layer: "drivers"},
		{name: "drivers.recovered_ratio", unit: "ratio", better: higher, layer: "drivers"},
		{name: "telemetry.recorder_spans_per_pkt", unit: "count", better: lower, layer: "telemetry"},
		{name: "telemetry.recorder_dumps", unit: "count", better: lower, layer: "telemetry"},
		{name: "session.allocs_per_pkt", unit: "count", better: lower, layer: "session"},
		{name: "trace.cpu_ns_per_pkt", unit: "ns", better: lower, layer: "trace"},
		{name: "trace.layer_sum_ratio", unit: "ratio", better: higher, layer: "trace"},
		{name: "trace.profile_samples", unit: "count", better: higher, layer: "trace"},
		{name: "trace.untraced_pkts_per_s", unit: "1/s", better: higher, layer: "trace"},
		{name: "trace.traced_pkts_per_s", unit: "1/s", better: higher, layer: "trace"},
		{name: "trace.overhead_ratio", unit: "ratio", better: lower, layer: "trace"},
	}...)
}()

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
