package fpgavirtio

import (
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// TestTraceTruncationReported: when the tracer's event cap fires, the
// capture says so explicitly — DroppedEvents counts the overflow and
// the Events slice holds exactly the cap.
func TestTraceTruncationReported(t *testing.T) {
	tr := &sim.RecordingTracer{Max: 3}
	for i := 0; i < 10; i++ {
		tr.Event(sim.Time(i), "ev")
	}
	trace := buildTrace(tr, telemetry.NewRecorder(sim.New().SpanKinds(), 0))
	if len(trace.Events) != 3 {
		t.Errorf("kept %d events, want the cap of 3", len(trace.Events))
	}
	if trace.DroppedEvents != 7 {
		t.Errorf("DroppedEvents = %d, want 7", trace.DroppedEvents)
	}
}

// TestTraceOpenSpansReported: a span begun but never closed (the shape
// an error path leaves behind) surfaces in OpenSpans rather than
// silently vanishing from the capture.
func TestTraceOpenSpansReported(t *testing.T) {
	s := sim.New()
	rec := telemetry.NewRecorder(s.SpanKinds(), 0)
	done := rec.SpanBegin(0, s.SpanKind(telemetry.LayerDriver, "", "xmit"))
	rec.SpanBegin(sim.Time(5), s.SpanKind(telemetry.LayerPCIe, "", "mmio")) // leaked
	rec.SpanEnd(sim.Time(10), done)
	trace := buildTrace(&sim.RecordingTracer{}, rec)
	if trace.OpenSpans != 1 {
		t.Errorf("OpenSpans = %d, want 1", trace.OpenSpans)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "xmit" {
		t.Errorf("closed spans = %+v, want just xmit", trace.Spans)
	}
}

// TestTraceCriticalPath: the microscope view agrees with itself — the
// critical path of a captured round trip partitions the app span
// exactly and touches the layers the trace shows.
func TestTraceCriticalPath(t *testing.T) {
	for _, path := range []string{"virtio", "xdma"} {
		t.Run(path, func(t *testing.T) {
			var trace *Trace
			var err error
			cfg := Config{Seed: 1, Quiet: true}
			if path == "virtio" {
				trace, err = TraceNet(NetConfig{Config: cfg}, 256)
			} else {
				trace, err = TraceXDMA(XDMAConfig{Config: cfg}, 310)
			}
			if err != nil {
				t.Fatalf("trace: %v", err)
			}
			cp, err := trace.CriticalPath()
			if err != nil {
				t.Fatalf("CriticalPath: %v", err)
			}
			var sum sim.Duration
			for _, st := range cp.Layers {
				sum += st.Total
			}
			if sum != cp.Total() {
				t.Errorf("layer totals %v != root window %v", sum, cp.Total())
			}
			if len(cp.Layers) < 4 {
				t.Errorf("critical path touches only %d layers; a full round trip crosses more", len(cp.Layers))
			}
			// Every critical-path layer must exist in the capture.
			have := map[string]bool{}
			for _, l := range trace.Layers() {
				have[l] = true
			}
			for _, st := range cp.Layers {
				if !have[st.Layer] {
					t.Errorf("critical path charges layer %q absent from the capture", st.Layer)
				}
			}
		})
	}
}

// TestTraceCriticalPathNeedsApp: filtering the app layer away makes
// attribution impossible, and the error says so.
func TestTraceCriticalPathNeedsApp(t *testing.T) {
	trace, err := TraceNet(NetConfig{Config: Config{Seed: 1, Quiet: true}}, 64)
	if err != nil {
		t.Fatalf("TraceNet: %v", err)
	}
	filtered := trace.FilterLayers(telemetry.LayerDriver, telemetry.LayerWire)
	if _, err := filtered.CriticalPath(); err == nil || !strings.Contains(err.Error(), "app") {
		t.Fatalf("CriticalPath after dropping app = %v, want app-span error", err)
	}
}
