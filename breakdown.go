package fpgavirtio

import (
	"fmt"
	"sort"
	"time"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// LayerBreakdown is the time one layer accumulated across a breakdown
// run, straight from the telemetry spans. Layers overlap (a driver span
// contains the PCIe transactions it issued), so the per-layer times are
// occupancy, not a partition of the total.
type LayerBreakdown struct {
	Layer string
	Time  time.Duration
	Spans int
}

// BreakdownReport is the span-derived latency attribution of a
// measurement run: the paper's software/hardware split computed by
// folding telemetry spans instead of reading the FPGA performance
// counters, plus the full per-layer occupancy table. Because the
// device-layer spans bracket the exact instants the hardware counters
// sample, the two attributions agree to within the counters' 8 ns
// quantization — BreakdownReport is the cross-check for the RTTSample
// decomposition, and the richer view of where the time went.
type BreakdownReport struct {
	Driver       string // "virtio-net" or "xdma"
	Rounds       int
	PayloadBytes int

	// Summed over all rounds.
	Total    time.Duration // application-observed time (app-layer spans)
	Hardware time.Duration // device engine occupancy (DMA/queue service)
	RespGen  time.Duration // user-logic response generation (virtio only)
	Software time.Duration // Total - Hardware - RespGen

	Layers  []LayerBreakdown
	Samples []RTTSample // the counter-based decomposition, per round

	// Critical is the per-layer critical-path attribution summed over
	// all rounds: each round's app window partitioned by the innermost
	// active span. Unlike Layers (occupancy, where nesting
	// double-counts), these totals partition the app time exactly, so
	// CriticalTotal == Total by construction and each layer's critical
	// time is bounded by its occupancy — the structural cross-check
	// between the two attributions.
	Critical      []LayerBreakdown
	CriticalTotal time.Duration

	// OpenSpans counts spans begun but never closed during the run —
	// always zero on a healthy round trip.
	OpenSpans int
}

// Breakdown measures rounds echo round trips of the given payload size
// with span recording enabled and returns the span-derived attribution
// alongside the per-round counter-based samples.
func (ns *NetSession) Breakdown(rounds, payloadBytes int) (BreakdownReport, error) {
	return ns.breakdown("virtio-net", rounds, payloadBytes, nil)
}

// Breakdown measures rounds write()+read() round trips of the given
// transfer size with span recording enabled and returns the
// span-derived attribution alongside the per-round counter-based
// samples.
func (xs *XDMASession) Breakdown(rounds, nbytes int) (BreakdownReport, error) {
	return xs.breakdown("xdma", rounds, nbytes, xs.host.RNG().Bytes)
}

// breakdown runs rounds detailed round trips of an nbytes buffer, each
// its own application process, under a span recorder and folds the
// spans into a report. fill (optional) sets the buffer's contents
// once, after the recorder is installed.
func (b *baseSession) breakdown(driver string, rounds, nbytes int, fill func([]byte)) (BreakdownReport, error) {
	if rounds <= 0 {
		return BreakdownReport{}, fmt.Errorf("fpgavirtio: breakdown needs rounds > 0, got %d", rounds)
	}
	rec := telemetry.NewRecorder(b.s.SpanKinds(), 0)
	b.s.SetSpanSink(rec)
	defer b.s.SetSpanSink(nil)

	data := make([]byte, nbytes)
	if fill != nil {
		fill(data)
	}
	back := make([]byte, nbytes)
	samples := make([]RTTSample, 0, rounds)
	for i := 0; i < rounds; i++ {
		sample, err := b.detailed(data, back)
		if err != nil {
			return BreakdownReport{}, err
		}
		samples = append(samples, sample)
	}
	return foldBreakdown(driver, rounds, nbytes, rec, samples), nil
}

// foldBreakdown computes the attribution from recorded spans. The
// hardware share mirrors what the RTTSample math reads from the FPGA
// counters: on the VirtIO path the queue-engine spans (minus the
// response-generation spans deducted per the paper's §IV-B), on the
// vendor path the DMA-engine channel-run spans.
func foldBreakdown(driver string, rounds, payload int, rec *telemetry.Recorder, samples []RTTSample) BreakdownReport {
	spans := rec.Spans()
	var total, hw, rg sim.Duration
	for _, s := range spans {
		d := s.Duration()
		switch {
		case s.Layer == telemetry.LayerApp:
			total += d
		case s.Layer == telemetry.LayerVirtIODevice && s.Name == "respgen":
			rg += d
		case s.Layer == telemetry.LayerVirtIODevice && driver == "virtio-net":
			hw += d
		case s.Layer == telemetry.LayerDMAEngine && driver == "xdma":
			hw += d
		}
	}
	var layers []LayerBreakdown
	for _, st := range telemetry.Attribution(spans) {
		layers = append(layers, LayerBreakdown{Layer: st.Layer, Time: toStd(st.Total), Spans: st.Spans})
	}

	// Critical-path fold: partition each round's app window and sum the
	// per-layer shares across rounds. Accumulation stays in simulated
	// picoseconds and converts once at the end — converting per round
	// would truncate sub-ns residue per (round, layer) and the layer
	// sums would drift below CriticalTotal.
	type critSum struct {
		total    sim.Duration
		segments int
	}
	critAcc := make(map[string]*critSum)
	var critTotal sim.Duration
	for _, s := range spans {
		if s.Layer != telemetry.LayerApp {
			continue
		}
		cp := telemetry.AnalyzeCriticalPathAt(spans, s)
		critTotal += cp.Total()
		for _, st := range cp.Layers {
			cs := critAcc[st.Layer]
			if cs == nil {
				cs = &critSum{}
				critAcc[st.Layer] = cs
			}
			cs.total += st.Total
			cs.segments += st.Segments
		}
	}
	// Telescoping conversion in a fixed layer order (canonical first,
	// leftovers sorted — never map order, so reports stay byte-stable):
	// layer ns values are differences of truncated cumulative ps, hence
	// sum exactly to toStd(critTotal).
	critLayers := make([]string, 0, len(critAcc))
	for _, l := range telemetry.CanonicalLayers {
		if _, ok := critAcc[l]; ok {
			critLayers = append(critLayers, l)
		}
	}
	rest := make([]string, 0, len(critAcc))
	for l := range critAcc {
		if telemetry.LayerRank(l) >= len(telemetry.CanonicalLayers) {
			rest = append(rest, l)
		}
	}
	sort.Strings(rest)
	critLayers = append(critLayers, rest...)
	var critical []LayerBreakdown
	var accPs sim.Duration
	var prev time.Duration
	for _, l := range critLayers {
		cs := critAcc[l]
		accPs += cs.total
		cur := toStd(accPs)
		critical = append(critical, LayerBreakdown{Layer: l, Time: cur - prev, Spans: cs.segments})
		prev = cur
	}

	return BreakdownReport{
		Driver:        driver,
		Rounds:        rounds,
		PayloadBytes:  payload,
		Total:         toStd(total),
		Hardware:      toStd(hw),
		RespGen:       toStd(rg),
		Software:      toStd(total - hw - rg),
		Layers:        layers,
		Samples:       samples,
		Critical:      critical,
		CriticalTotal: toStd(critTotal),
		OpenSpans:     len(rec.OpenSpans()),
	}
}
