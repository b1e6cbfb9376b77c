// Package fixture exercises the metricname analyzer: ad-hoc metric
// name literals, non-canonical span layers, and leaked spans.
package fixture

import (
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Span mimes sim.SpanRef.
type Span struct{}

func (Span) End() {}

// Kind mimes sim.SpanKind.
type Kind uint32

// Tracer mimes the simulator's span surface: kinds are registered with
// their layer once, and spans open by kind.
type Tracer struct{}

func (Tracer) SpanKind(layer, dir, name string) Kind { return 0 }
func (Tracer) BeginSpan(k Kind) Span                 { return Span{} }

// Plot has a non-string Histogram method, like the benchmark
// reporter's renderer: not a registry instrument, not flagged.
type Plot struct{}

func (Plot) Histogram(bins, width int) string { return "" }

func goodConstName(reg *telemetry.Registry) {
	reg.Counter(telemetry.MetricStreamPackets).Add(1)
	reg.Gauge(telemetry.MetricStreamWindow).Set(3)
}

func goodHelperName(reg *telemetry.Registry) {
	reg.Counter(telemetry.MetricXDMATransfers("h2c")).Add(1)
}

func goodHDRName(reg *telemetry.Registry) {
	// The tail.* and recorder.* families ride the same rule as every
	// other instrument, including the HDR get-or-create path.
	reg.HDR(telemetry.MetricTailRTTTotalNs).Observe(1)
	reg.Counter(telemetry.MetricRecorderDumps).Add(1)
}

func badLiteralName(reg *telemetry.Registry) {
	reg.Counter("stream.packets").Add(1) // want "metric name must be a telemetry constant or Metric"
}

func badHDRLiteralName(reg *telemetry.Registry) {
	reg.HDR("tail.rtt.total.ns").Observe(1) // want "metric name must be a telemetry constant or Metric"
}

func badRecorderLiteralName(reg *telemetry.Registry) {
	reg.Counter("recorder.dumps").Add(1) // want "metric name must be a telemetry constant or Metric"
}

func badBuiltName(reg *telemetry.Registry, dir string) {
	reg.Counter("driver.xdma." + dir + ".bytes").Add(1) // want "metric name must be a telemetry constant or Metric"
}

func notAnInstrument(p Plot) string {
	return p.Histogram(16, 50)
}

func goodLayer(tr Tracer) Kind {
	return tr.SpanKind(telemetry.LayerDriver, "", "xmit")
}

func goodWireLayer(tr Tracer, dir string) Kind {
	return tr.SpanKind(telemetry.LayerWire, dir, "MWr")
}

func badLayer(tr Tracer) Kind {
	return tr.SpanKind("driver", "", "xmit") // want "span layer must be one of the telemetry Layer"
}

func kindConversion(n int) sim.SpanKind {
	return sim.SpanKind(n) // a conversion, not a registration: not checked
}

func goodSpan(tr Tracer, k Kind) {
	sp := tr.BeginSpan(k)
	sp.End()
}

func badLeak(tr Tracer, k Kind, fail bool) error {
	sp := tr.BeginSpan(k)
	if fail {
		return errFailed // want "return may leak span \"sp\""
	}
	sp.End()
	return nil
}

func goodDeferClose(tr Tracer, k Kind) error {
	sp := tr.BeginSpan(k)
	defer sp.End()
	if sp == (Span{}) {
		return errFailed
	}
	return nil
}

func goodDeferClosure(tr Tracer, k Kind) error {
	sp := tr.BeginSpan(k)
	defer func() { sp.End() }()
	return nil
}

func suppressedName(reg *telemetry.Registry) {
	//fvlint:ignore metricname fixture demonstrates justified suppression
	reg.Counter("adhoc.name").Add(1)
}

type fixtureErr string

func (e fixtureErr) Error() string { return string(e) }

var errFailed = fixtureErr("failed")
