// Package telemetry is the structured observability layer of the
// testbed: layer-attributed spans recorded from a sim.SpanSink, a
// metrics registry (counters, gauges, fixed-bucket histograms), and
// exporters for Chrome trace-event JSON, metric snapshots, and bench
// artifacts.
//
// The span model exists so the paper's software/hardware attribution
// (§IV-B, Figs. 4-5) is a fold over recorded intervals instead of
// hand-maintained arithmetic: every layer of the simulated testbed
// brackets its work with sim.BeginSpan under one of the Layer* names
// below, registered once per Sim as a sim.SpanKind, and a Recorder
// collects the begin/end pairs, resolving each kind back to its layer
// and name.
package telemetry

import (
	"sort"

	"fpgavirtio/internal/sim"
)

// Canonical layer names. Every span carries exactly one; exporters
// group by layer (one Perfetto process per layer) and attribution
// sums durations per layer.
const (
	LayerApp          = "app"           // userspace test program between clock reads
	LayerSyscall      = "syscall"       // kernel entry/exit cost
	LayerDriver       = "driver"        // virtio-net / xdma driver bodies
	LayerIRQ          = "irq"           // interrupt delivery and handler execution
	LayerPCIe         = "pcie"          // transaction-layer operations (MMIO, DMA, MSI-X)
	LayerDMAEngine    = "dma-engine"    // XDMA engine runs and card-side DMA ports
	LayerVirtIODevice = "virtio-device" // controller queue engines + user logic
	LayerWire         = "wire"          // per-TLP link occupancy + flight
)

// CanonicalLayers lists the known layers in display order.
var CanonicalLayers = []string{
	LayerApp, LayerSyscall, LayerDriver, LayerIRQ,
	LayerPCIe, LayerDMAEngine, LayerVirtIODevice, LayerWire,
}

// LayerRank orders layers for display: canonical layers first in the
// order above, unknown layers after.
func LayerRank(layer string) int {
	for i, l := range CanonicalLayers {
		if l == layer {
			return i
		}
	}
	return len(CanonicalLayers)
}

// Span is one closed interval of attributed work.
type Span struct {
	ID    uint64
	Layer string
	Name  string
	Start sim.Time
	End   sim.Time
	// Attrs are alternating key/value pairs; DumpSpans marks a span
	// still open at a flight dump with "open", "true".
	Attrs []string
}

// Duration is the span's extent.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Recorder implements sim.SpanSink by collecting spans in memory.
// Closed spans accumulate in completion order; unmatched begins stay
// open and are reported separately so truncated traces are visible.
// A span's Name is its kind's label ("dir:name" for directed kinds).
type Recorder struct {
	// Max caps the total number of spans tracked (open + closed);
	// 0 = unlimited. Spans begun past the cap are counted as dropped.
	Max int

	kinds   *sim.SpanKinds
	spans   []Span
	open    map[uint64]Span
	next    uint64
	dropped int
}

// NewRecorder returns a Recorder that resolves span kinds in kinds
// (the table of the Sim it is installed on), capped at max spans
// (0 = unlimited).
func NewRecorder(kinds *sim.SpanKinds, max int) *Recorder {
	return &Recorder{Max: max, kinds: kinds, open: make(map[uint64]Span)}
}

// span resolves kind k into a Span with the given id and endpoints.
func (r *Recorder) span(id uint64, k sim.SpanKind, start, end sim.Time) Span {
	info := r.kinds.Info(k)
	return Span{ID: id, Layer: info.Layer, Name: info.Label(), Start: start, End: end}
}

// full reports whether the Max cap is reached.
func (r *Recorder) full() bool { return r.Max > 0 && len(r.spans)+len(r.open) >= r.Max }

// SpanBegin implements sim.SpanSink.
func (r *Recorder) SpanBegin(at sim.Time, k sim.SpanKind) uint64 {
	r.next++
	id := r.next
	if r.full() {
		r.dropped++
		return id
	}
	r.open[id] = r.span(id, k, at, 0)
	return id
}

// SpanEnd implements sim.SpanSink. Ends for unknown ids (dropped or
// begun before the recorder was installed) are ignored.
func (r *Recorder) SpanEnd(at sim.Time, id uint64) {
	sp, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	sp.End = at
	r.spans = append(r.spans, sp)
}

// SpanClosed implements sim.SpanSink: it records an interval whose
// endpoints are already known, bypassing the begin/end pairing.
func (r *Recorder) SpanClosed(k sim.SpanKind, start, end sim.Time) {
	r.next++
	if r.full() {
		r.dropped++
		return
	}
	r.spans = append(r.spans, r.span(r.next, k, start, end))
}

// Spans returns the closed spans sorted by (Start, ID).
func (r *Recorder) Spans() []Span {
	out := append([]Span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// OpenSpans returns spans that were begun but never ended, sorted by
// (Start, ID). A non-empty result means the recording window closed
// mid-interval (or a layer leaked a span).
func (r *Recorder) OpenSpans() []Span {
	out := make([]Span, 0, len(r.open))
	for _, sp := range r.open {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dropped reports how many spans were discarded due to the Max cap.
func (r *Recorder) Dropped() int { return r.dropped }

// Reset discards all recorded state but keeps the cap.
func (r *Recorder) Reset() {
	r.spans = nil
	r.open = make(map[uint64]Span)
	r.dropped = 0
}

// LayerStat is the per-layer result of an attribution fold.
type LayerStat struct {
	Layer string
	Total sim.Duration // sum of span durations (overlaps double-count)
	Spans int
}

// Attribution folds closed spans into per-layer totals, ordered by
// LayerRank then name. Durations are straight sums: concurrent spans
// in one layer double-count, matching how the paper sums independent
// hardware counters.
func Attribution(spans []Span) []LayerStat {
	byLayer := make(map[string]*LayerStat)
	for _, sp := range spans {
		st := byLayer[sp.Layer]
		if st == nil {
			st = &LayerStat{Layer: sp.Layer}
			byLayer[sp.Layer] = st
		}
		st.Total += sp.Duration()
		st.Spans++
	}
	out := make([]LayerStat, 0, len(byLayer))
	for _, st := range byLayer {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := LayerRank(out[i].Layer), LayerRank(out[j].Layer)
		if ri != rj {
			return ri < rj
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}
