// Package experiments regenerates every table and figure of the
// paper's evaluation section, plus the extension studies listed in
// DESIGN.md. Each experiment returns structured results and renders
// paper-style text output.
//
// Methodology notes carried over from the paper (§III-B, §IV):
//
//   - Each point is measured over Params.Packets round trips (the
//     paper uses 50,000 per payload size).
//   - Payload sizes are the UDP payload of the VirtIO test; the XDMA
//     test's buffer is enlarged by the protocol headers (Ethernet +
//     IPv4 + UDP + virtio_net_hdr = 54 bytes) so both tests move the
//     same number of bytes over the PCIe link.
//   - VirtIO hardware time is the controller's TX+RX queue-engine
//     counters; the user logic's response-generation time is deducted
//     separately. XDMA hardware time is the H2C+C2H engine counters.
//   - The XDMA test is the paper's favourable back-to-back setup (no
//     data-ready wait); the realistic variant is the IRQ ablation.
package experiments

import (
	"fmt"
	"strings"
	"time"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/perf"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// HeaderOverhead is the per-packet framing the VirtIO path carries on
// the link beyond the UDP payload.
const HeaderOverhead = netstack.HeaderOverhead + virtio.NetHdrSize

// DefaultPayloads is the paper's sweep: 64 B to 1 KB.
var DefaultPayloads = []int{64, 128, 256, 512, 1024}

// Params controls an experiment run.
type Params struct {
	Seed     uint64
	Packets  int   // round trips per point (paper: 50,000)
	Payloads []int // UDP payload sizes
	Link     fpgavirtio.Link
	// Faults is a fault-injection plan (faults.Parse syntax) armed in
	// every session the run opens. Empty means no injection — the
	// zero-fault path, byte-identical to a build without the faults
	// package. Samples whose round trip overlapped an injection are
	// counted in PointResult.Faulted and excluded from the latency
	// series, so percentiles describe only clean round trips.
	Faults string
	// PollMode runs every session on its busy-poll datapath (no MSI-X,
	// spin-costed completion discovery) instead of the interrupt one.
	// Points measured this way carry datapath="poll" in artifacts.
	PollMode bool
}

// withDefaults fills unset fields.
func (p Params) withDefaults() Params {
	if p.Packets == 0 {
		p.Packets = 50000
	}
	if len(p.Payloads) == 0 {
		p.Payloads = DefaultPayloads
	}
	return p
}

// PointResult is one (driver, payload) measurement: the total series
// plus the decomposed means.
type PointResult struct {
	Driver  string
	Payload int
	// Datapath is "poll" for busy-poll measurements, "" for the default
	// interrupt-driven path — mirrored into the artifact point.
	Datapath string
	Total    *perf.Series
	SW       *perf.Series
	HW       *perf.Series
	RG       *perf.Series
	// Interrupts is the device's total MSI-X count over the run.
	Interrupts int
	// Faulted counts round trips excluded from the series because a
	// fault was injected while they were in flight (always 0 without a
	// fault plan).
	Faulted int
	// Metrics is the session's telemetry snapshot after the run.
	Metrics []telemetry.MetricSnapshot
	// Tail holds the critical-path attribution of this point's tail
	// samples (p99, p99.9, max), filled by AttributeTails.
	Tail []telemetry.TailSample
	// FlightDumps are the session's flight-recorder snapshots: one per
	// fault class that fired, plus the worst-RTT trigger.
	FlightDumps []telemetry.FlightDump

	// cleanLoops/cleanNs record, per clean (fault-excluded) sample in
	// completion order, the raw series loop index and the measured RTT
	// in nanoseconds. perf.Series sorts its samples in place the first
	// time a percentile is read, so this pair — not the series — is the
	// map from a tail rank back to the loop index AttributeTails must
	// replay.
	cleanLoops []int
	cleanNs    []int64
}

func toSim(d time.Duration) sim.Duration { return sim.Duration(d.Nanoseconds()) * sim.Nanosecond }

// datapathName is the artifact spelling of the datapath axis: "poll"
// for busy-poll sessions, "" (omitted from JSON) for interrupt mode.
func datapathName(poll bool) string {
	if poll {
		return "poll"
	}
	return ""
}

// MeasureVirtIO runs the paper's VirtIO test for one payload size:
// UDP echo through the socket API and the virtio-net driver.
func MeasureVirtIO(p Params, payload int, mutate func(*fpgavirtio.NetConfig)) (*PointResult, error) {
	p = p.withDefaults()
	cfg := fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link, Faults: p.Faults, PollMode: p.PollMode}}
	if mutate != nil {
		mutate(&cfg)
	}
	ns, err := fpgavirtio.OpenNet(cfg)
	if err != nil {
		return nil, err
	}
	res := &PointResult{
		Driver:   "virtio",
		Payload:  payload,
		Datapath: datapathName(cfg.PollMode),
		Total:    perf.NewSeriesCap(fmt.Sprintf("virtio/%d/total", payload), p.Packets),
		SW:       perf.NewSeriesCap("sw", p.Packets),
		HW:       perf.NewSeriesCap("hw", p.Packets),
		RG:       perf.NewSeriesCap("rg", p.Packets),
	}
	buf := make([]byte, payload)
	// A sample that overlapped an injection measured the recovery path,
	// not the steady state — flag it and keep it out of the percentile
	// series. Faults injected between round trips advance the count too;
	// charging them to the next sample errs on the side of exclusion.
	faultMark := ns.FaultEvents()
	err = ns.PingSeries(buf, p.Packets, func(i int, s fpgavirtio.RTTSample) {
		if now := ns.FaultEvents(); now != faultMark {
			faultMark = now
			res.Faulted++
			return
		}
		res.Total.Add(toSim(s.Total))
		res.SW.Add(toSim(s.Software))
		res.HW.Add(toSim(s.Hardware))
		res.RG.Add(toSim(s.RespGen))
		res.cleanLoops = append(res.cleanLoops, i)
		res.cleanNs = append(res.cleanNs, s.Total.Nanoseconds())
	})
	if err != nil {
		return nil, fmt.Errorf("virtio: %w", err)
	}
	res.Interrupts = ns.BusStats().Interrupts
	res.Metrics = ns.Registry().Snapshot()
	res.FlightDumps = ns.FlightDumps()
	return res, nil
}

// MeasureXDMA runs the paper's vendor test for one (VirtIO-equivalent)
// payload size: write()+read() through the reference driver, moving
// payload+headers bytes so the link carries the same traffic.
func MeasureXDMA(p Params, payload int, mutate func(*fpgavirtio.XDMAConfig)) (*PointResult, error) {
	p = p.withDefaults()
	cfg := fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link, Faults: p.Faults, PollMode: p.PollMode}}
	if mutate != nil {
		mutate(&cfg)
	}
	xs, err := fpgavirtio.OpenXDMA(cfg)
	if err != nil {
		return nil, err
	}
	res := &PointResult{
		Driver:   "xdma",
		Payload:  payload,
		Datapath: datapathName(cfg.PollMode),
		Total:    perf.NewSeriesCap(fmt.Sprintf("xdma/%d/total", payload), p.Packets),
		SW:       perf.NewSeriesCap("sw", p.Packets),
		HW:       perf.NewSeriesCap("hw", p.Packets),
		RG:       perf.NewSeriesCap("rg", p.Packets),
	}
	buf := make([]byte, payload+HeaderOverhead)
	faultMark := xs.FaultEvents()
	err = xs.RoundTripSeries(buf, p.Packets, func(i int, s fpgavirtio.RTTSample) {
		if now := xs.FaultEvents(); now != faultMark {
			faultMark = now
			res.Faulted++
			return
		}
		res.Total.Add(toSim(s.Total))
		res.SW.Add(toSim(s.Software))
		res.HW.Add(toSim(s.Hardware))
		res.RG.Add(0)
		res.cleanLoops = append(res.cleanLoops, i)
		res.cleanNs = append(res.cleanNs, s.Total.Nanoseconds())
	})
	if err != nil {
		return nil, fmt.Errorf("xdma: %w", err)
	}
	res.Interrupts = xs.BusStats().Interrupts
	res.Metrics = xs.Registry().Snapshot()
	res.FlightDumps = xs.FlightDumps()
	return res, nil
}

// Sweep runs both drivers across all payloads.
type Sweep struct {
	Params Params
	VirtIO []*PointResult
	XDMA   []*PointResult
}

// RunSweep measures the full grid the paper's figures share.
func RunSweep(p Params) (*Sweep, error) {
	p = p.withDefaults()
	sw := &Sweep{Params: p}
	for _, size := range p.Payloads {
		v, err := MeasureVirtIO(p, size, nil)
		if err != nil {
			return nil, err
		}
		x, err := MeasureXDMA(p, size, nil)
		if err != nil {
			return nil, err
		}
		sw.VirtIO = append(sw.VirtIO, v)
		sw.XDMA = append(sw.XDMA, x)
	}
	return sw, nil
}

// ---- Fig. 3: round-trip latency distribution ----------------------------

// Fig3 reproduces the latency-distribution comparison.
type Fig3 struct {
	Rows []perf.Summary // one per (payload, driver), VirtIO first
}

// RunFig3 derives the figure from a sweep.
func RunFig3(sw *Sweep) *Fig3 {
	f := &Fig3{}
	for i := range sw.VirtIO {
		f.Rows = append(f.Rows, sw.VirtIO[i].Total.Summarize(), sw.XDMA[i].Total.Summarize())
	}
	return f
}

// Render prints the distribution table.
func (f *Fig3) Render() string {
	t := perf.Table{
		Title:   "Fig. 3 — Round-trip latency distribution (us), VirtIO vs XDMA",
		Headers: []string{"series", "n", "mean", "std", "min", "p25", "p50", "p75", "p95", "p99", "p99.9", "max"},
	}
	for _, s := range f.Rows {
		t.AddRow(s.Name, fmt.Sprint(s.Count), perf.Us(s.Mean), perf.Us(s.Std), perf.Us(s.Min),
			perf.Us(s.P25), perf.Us(s.P50), perf.Us(s.P75), perf.Us(s.P95), perf.Us(s.P99),
			perf.Us(s.P999), perf.Us(s.Max))
	}
	return t.String()
}

// ---- Fig. 4 / Fig. 5: latency breakdowns --------------------------------

// BreakdownFig is the software/hardware decomposition of one driver
// (Fig. 4 for VirtIO, Fig. 5 for XDMA).
type BreakdownFig struct {
	Driver string
	Rows   []BreakdownRow
}

// BreakdownRow is one payload's bars.
type BreakdownRow struct {
	Payload             int
	SWMean, SWStd       sim.Duration
	HWMean, HWStd       sim.Duration
	RGMean              sim.Duration
	TotalMean, TotalStd sim.Duration
}

// RunFig4 derives the VirtIO breakdown from a sweep.
func RunFig4(sw *Sweep) *BreakdownFig { return breakdown("virtio (Fig. 4)", sw.VirtIO) }

// RunFig5 derives the XDMA breakdown from a sweep.
func RunFig5(sw *Sweep) *BreakdownFig { return breakdown("xdma (Fig. 5)", sw.XDMA) }

func breakdown(name string, pts []*PointResult) *BreakdownFig {
	f := &BreakdownFig{Driver: name}
	for _, pt := range pts {
		f.Rows = append(f.Rows, BreakdownRow{
			Payload:   pt.Payload,
			SWMean:    pt.SW.Mean(),
			SWStd:     pt.SW.Std(),
			HWMean:    pt.HW.Mean(),
			HWStd:     pt.HW.Std(),
			RGMean:    pt.RG.Mean(),
			TotalMean: pt.Total.Mean(),
			TotalStd:  pt.Total.Std(),
		})
	}
	return f
}

// Render prints the mean ± stddev bars the figures plot.
func (f *BreakdownFig) Render() string {
	t := perf.Table{
		Title:   fmt.Sprintf("Latency breakdown — %s (us, mean +/- std)", f.Driver),
		Headers: []string{"payload", "software", "hardware", "respgen", "total"},
	}
	for _, r := range f.Rows {
		t.AddRow(fmt.Sprint(r.Payload),
			fmt.Sprintf("%s +/- %s", perf.Us(r.SWMean), perf.Us(r.SWStd)),
			fmt.Sprintf("%s +/- %s", perf.Us(r.HWMean), perf.Us(r.HWStd)),
			perf.Us(r.RGMean),
			fmt.Sprintf("%s +/- %s", perf.Us(r.TotalMean), perf.Us(r.TotalStd)))
	}
	return t.String()
}

// ---- Table I: tail latencies ---------------------------------------------

// Table1 reproduces the tail-latency table.
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one payload's tails for both drivers, in microseconds.
type Table1Row struct {
	Payload                        int
	V95, X95, V99, X99, V999, X999 sim.Duration
}

// RunTable1 derives Table I from a sweep.
func RunTable1(sw *Sweep) *Table1 {
	t := &Table1{}
	for i := range sw.VirtIO {
		v, x := sw.VirtIO[i].Total, sw.XDMA[i].Total
		t.Rows = append(t.Rows, Table1Row{
			Payload: sw.VirtIO[i].Payload,
			V95:     v.Percentile(95), X95: x.Percentile(95),
			V99: v.Percentile(99), X99: x.Percentile(99),
			V999: v.Percentile(99.9), X999: x.Percentile(99.9),
		})
	}
	return t
}

// Render prints the paper's Table I layout.
func (t *Table1) Render() string {
	tab := perf.Table{
		Title: "Table I — Tail latencies for data movement with VirtIO and XDMA (us)",
		Headers: []string{"Payload(B)",
			"95% VirtIO", "95% XDMA", "99% VirtIO", "99% XDMA", "99.9% VirtIO", "99.9% XDMA"},
	}
	for _, r := range t.Rows {
		tab.AddRow(fmt.Sprint(r.Payload),
			perf.Us(r.V95), perf.Us(r.X95),
			perf.Us(r.V99), perf.Us(r.X99),
			perf.Us(r.V999), perf.Us(r.X999))
	}
	return tab.String()
}

// Render renders the four paper artifacts from the sweep.
func (sw *Sweep) Render() string {
	var b strings.Builder
	b.WriteString(RunFig3(sw).Render())
	b.WriteString("\n")
	b.WriteString(RunFig4(sw).Render())
	b.WriteString("\n")
	b.WriteString(RunFig5(sw).Render())
	b.WriteString("\n")
	b.WriteString(RunTable1(sw).Render())
	return b.String()
}
