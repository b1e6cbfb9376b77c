package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
)

func ps(ns int64) sim.Time { return sim.Time(ns) * sim.Time(sim.Nanosecond) }

// testSim owns the span-kind table the recorder tests register into.
var testSim = sim.New()

// kind registers an undirected (layer, name) span kind.
func kind(layer, name string) sim.SpanKind { return testSim.SpanKind(layer, "", name) }

func newTestRecorder(max int) *Recorder { return NewRecorder(testSim.SpanKinds(), max) }

func TestRecorderPairing(t *testing.T) {
	r := newTestRecorder(0)
	id1 := r.SpanBegin(ps(10), kind(LayerDriver, "xmit"))
	id2 := r.SpanBegin(ps(12), kind(LayerPCIe, "mmio"))
	r.SpanEnd(ps(14), id2)
	r.SpanEnd(ps(20), id1)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Sorted by start time: the driver span begun first comes first
	// even though it closed last.
	if spans[0].Name != "xmit" || spans[1].Name != "mmio" {
		t.Fatalf("span order = %q, %q; want xmit, mmio", spans[0].Name, spans[1].Name)
	}
	if d := spans[0].Duration(); d != 10*sim.Nanosecond {
		t.Errorf("xmit duration = %v, want 10ns", d)
	}
	if d := spans[1].Duration(); d != 2*sim.Nanosecond {
		t.Errorf("mmio duration = %v, want 2ns", d)
	}
	if n := len(r.OpenSpans()); n != 0 {
		t.Errorf("open spans = %d, want 0", n)
	}
}

func TestRecorderUnclosedDetection(t *testing.T) {
	r := newTestRecorder(0)
	r.SpanBegin(ps(5), kind(LayerIRQ, "leaked"))
	id := r.SpanBegin(ps(6), kind(LayerApp, "done"))
	r.SpanEnd(ps(9), id)

	open := r.OpenSpans()
	if len(open) != 1 || open[0].Name != "leaked" {
		t.Fatalf("open spans = %+v, want one 'leaked'", open)
	}
	if len(r.Spans()) != 1 {
		t.Fatalf("closed spans = %d, want 1", len(r.Spans()))
	}
	// An end for an id the recorder never saw must be ignored.
	r.SpanEnd(ps(10), 9999)
	if len(r.Spans()) != 1 {
		t.Fatalf("spurious end created a span")
	}
}

func TestRecorderDropCap(t *testing.T) {
	r := newTestRecorder(2)
	a := r.SpanBegin(ps(1), kind(LayerApp, "a"))
	b := r.SpanBegin(ps(2), kind(LayerApp, "b"))
	c := r.SpanBegin(ps(3), kind(LayerApp, "c")) // over cap: dropped
	r.SpanEnd(ps(4), a)
	r.SpanEnd(ps(5), b)
	r.SpanEnd(ps(6), c)
	r.SpanClosed(kind(LayerApp, "d"), ps(7), ps(8)) // still at cap: dropped

	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	if got := len(r.Spans()); got != 2 {
		t.Fatalf("closed spans = %d, want 2", got)
	}
	r.Reset()
	if r.Dropped() != 0 || len(r.Spans()) != 0 || len(r.OpenSpans()) != 0 {
		t.Fatalf("Reset did not clear state")
	}
}

// TestRecorderSpanClosed: a closed span is recorded whole, and a
// directed kind resolves to a "dir:name" span name.
func TestRecorderSpanClosed(t *testing.T) {
	r := newTestRecorder(0)
	r.SpanClosed(testSim.SpanKind(LayerWire, "down", "MWr"), ps(100), ps(250))
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Duration() != 150*sim.Nanosecond {
		t.Errorf("duration = %v, want 150ns", spans[0].Duration())
	}
	if spans[0].Layer != LayerWire || spans[0].Name != "down:MWr" {
		t.Errorf("span = %s/%s, want wire/down:MWr", spans[0].Layer, spans[0].Name)
	}
}

func TestAttribution(t *testing.T) {
	spans := []Span{
		{Layer: LayerWire, Start: ps(0), End: ps(5)},
		{Layer: LayerDriver, Start: ps(0), End: ps(10)},
		{Layer: LayerWire, Start: ps(3), End: ps(9)}, // overlaps: double-counts
		{Layer: "custom", Start: ps(0), End: ps(1)},
	}
	stats := Attribution(spans)
	if len(stats) != 3 {
		t.Fatalf("got %d layers, want 3", len(stats))
	}
	// Canonical order: driver before wire, unknown layers last.
	if stats[0].Layer != LayerDriver || stats[1].Layer != LayerWire || stats[2].Layer != "custom" {
		t.Fatalf("layer order = %s, %s, %s", stats[0].Layer, stats[1].Layer, stats[2].Layer)
	}
	if stats[1].Total != 11*sim.Nanosecond || stats[1].Spans != 2 {
		t.Errorf("wire = %v over %d spans, want 11ns over 2", stats[1].Total, stats[1].Spans)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Fatalf("same name returned different counters")
	}
	c1.Inc()
	c1.Add(4)
	if c2.Value() != 5 {
		t.Fatalf("shared counter value = %d, want 5", c2.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("cross-kind registration did not panic")
		}
	}()
	r.Gauge("x")
}

func TestNilRegistryDiscards(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(3)
	r.HDR("c").Observe(2)
	if snaps := r.Snapshot(); snaps != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snaps)
	}
}

func TestSnapshotSortedAndSerializable(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(7)
	r.Gauge("a.gauge").Set(1.5)
	h := r.HDR("m.hdr")
	h.Observe(5)
	h.Observe(3000000) // a bound large enough for %g to use an exponent

	snaps := r.Snapshot()
	names := []string{snaps[0].Name, snaps[1].Name, snaps[2].Name}
	if names[0] != "a.gauge" || names[1] != "m.hdr" || names[2] != "z.count" {
		t.Fatalf("snapshot order = %v", names)
	}
	// Every bucket bound is finite, so the JSON dump round-trips.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snaps); err != nil {
		t.Fatalf("encoding the snapshot: %v", err)
	}
	if !strings.Contains(buf.String(), `e+06`) {
		t.Errorf("large bucket bound not written in %%g form:\n%s", buf.String())
	}
	var back []MetricSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON dump does not parse back: %v", err)
	}
	if !reflect.DeepEqual(back, snaps) {
		t.Errorf("JSON round trip = %+v, want %+v", back, snaps)
	}

	buf.Reset()
	if err := WriteMetricsCSV(&buf, snaps); err != nil {
		t.Fatalf("WriteMetricsCSV: %v", err)
	}
	if !strings.Contains(buf.String(), "m.hdr,bucket,,1,,5\n") {
		t.Errorf("CSV missing histogram bucket rows:\n%s", buf.String())
	}
}

func TestChromeTraceStructure(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: LayerApp, Name: "ping", Start: ps(0), End: ps(100)},
		{ID: 2, Layer: LayerDriver, Name: "xmit", Start: ps(5), End: ps(20)},
		{ID: 3, Layer: LayerDriver, Name: "napi", Start: ps(10), End: ps(30)}, // overlaps xmit
		{ID: 4, Layer: LayerWire, Name: "tlp", Start: ps(6), End: ps(9), Attrs: []string{"bytes", "64"}},
	}
	instants := []Instant{{Name: "irq", At: int64(ps(15))}}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, instants); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Unit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.Unit)
	}

	var completes, instantsSeen, metas int
	pidName := make(map[float64]string)
	tidsByPid := make(map[float64]map[float64]bool)
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			completes++
			pid := ev["pid"].(float64)
			if tidsByPid[pid] == nil {
				tidsByPid[pid] = make(map[float64]bool)
			}
			tidsByPid[pid][ev["tid"].(float64)] = true
		case "i":
			instantsSeen++
			if ev["pid"].(float64) != 0 {
				t.Errorf("instant pid = %v, want 0", ev["pid"])
			}
		case "M":
			metas++
			if ev["name"] == "process_name" {
				args := ev["args"].(map[string]any)
				pidName[ev["pid"].(float64)] = args["name"].(string)
			}
		}
	}
	if completes != 4 || instantsSeen != 1 {
		t.Fatalf("events: %d complete, %d instants; want 4, 1", completes, instantsSeen)
	}
	// Layers rank app(1) < driver(2) < wire(3); sim-events at pid 0.
	want := map[float64]string{0: "sim-events", 1: "app", 2: "driver", 3: "wire"}
	for pid, name := range want {
		if pidName[pid] != name {
			t.Errorf("pid %v = %q, want %q", pid, pidName[pid], name)
		}
	}
	// The two overlapping driver spans must land on distinct tids.
	if len(tidsByPid[2]) != 2 {
		t.Errorf("driver tids = %v, want 2 lanes for overlapping spans", tidsByPid[2])
	}
	// Attrs render into the event name.
	if !strings.Contains(buf.String(), "tlp [bytes=64]") {
		t.Errorf("span attrs not rendered in name")
	}
	// Timestamps are microseconds: the app span is 100ns = 0.1us.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "ping" {
			if dur := ev["dur"].(float64); math.Abs(dur-0.1) > 1e-9 {
				t.Errorf("ping dur = %v us, want 0.1", dur)
			}
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil); err != nil {
		t.Fatalf("WriteChromeTrace(empty): %v", err)
	}
	if strings.Contains(buf.String(), `"traceEvents":null`) {
		t.Fatalf("empty trace serialized traceEvents as null")
	}
}

func validArtifact() *BenchArtifact {
	return &BenchArtifact{
		Schema:     BenchSchema,
		Experiment: "fig3",
		Seed:       1,
		Packets:    100,
		Link:       "Gen2 x2",
		Points: []BenchPoint{{
			Driver: "virtio", Payload: 64, Count: 100,
			MeanNs: 29000, StdNs: 400, MinNs: 28000,
			P25Ns: 28500, P50Ns: 28900, P75Ns: 29200,
			P95Ns: 29800, P99Ns: 30500, P999Ns: 31000, MaxNs: 31500,
			SWMeanNs: 9000, HWMeanNs: 19000, RGMeanNs: 1000, Interrupts: 100,
		}},
	}
}

func TestBenchArtifactValidate(t *testing.T) {
	if err := validArtifact().Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	bad := func(mut func(*BenchArtifact)) error {
		a := validArtifact()
		mut(a)
		return a.Validate()
	}
	cases := []struct {
		name string
		mut  func(*BenchArtifact)
	}{
		{"wrong schema", func(a *BenchArtifact) { a.Schema = "fvbench/v0" }},
		{"no experiment", func(a *BenchArtifact) { a.Experiment = "" }},
		{"no points", func(a *BenchArtifact) { a.Points = nil }},
		{"empty driver", func(a *BenchArtifact) { a.Points[0].Driver = "" }},
		{"zero count", func(a *BenchArtifact) { a.Points[0].Count = 0 }},
		{"non-monotone", func(a *BenchArtifact) { a.Points[0].P99Ns = a.Points[0].P50Ns - 1 }},
		{"negative breakdown", func(a *BenchArtifact) { a.Points[0].HWMeanNs = -1 }},
	}
	for _, tc := range cases {
		if bad(tc.mut) == nil {
			t.Errorf("%s: Validate accepted a broken artifact", tc.name)
		}
	}
}

func TestBenchJSONRoundTrip(t *testing.T) {
	a := validArtifact()
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, a); err != nil {
		t.Fatalf("WriteBenchJSON: %v", err)
	}
	if err := ValidateBenchJSON(buf.Bytes()); err != nil {
		t.Fatalf("ValidateBenchJSON rejected own output: %v", err)
	}
	if err := ValidateBenchJSON([]byte(`{"schema":"nope"}`)); err == nil {
		t.Fatalf("ValidateBenchJSON accepted a bad schema")
	}
	if err := ValidateBenchJSON([]byte(`not json`)); err == nil {
		t.Fatalf("ValidateBenchJSON accepted malformed JSON")
	}

	buf.Reset()
	if err := WriteBenchCSV(&buf, a); err != nil {
		t.Fatalf("WriteBenchCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want header + 1 point", len(lines))
	}
	if !strings.HasPrefix(lines[1], "virtio,irq,64,100,29000,") {
		t.Errorf("CSV row = %q", lines[1])
	}
}
