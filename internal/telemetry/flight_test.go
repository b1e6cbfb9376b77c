package telemetry

import (
	"runtime"
	"testing"

	"fpgavirtio/internal/sim"
)

// TestFlightRingWrap: a full ring evicts oldest-first and the snapshot
// comes out in chronological order across the wrap point.
func TestFlightRingWrap(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(testSim.SpanKinds(), 4, 2, reg)
	for i := int64(0); i < 6; i++ {
		fr.SpanClosed(testSim.SpanKind(LayerWire, "down", "MWr"), ps(i), ps(i+1))
	}
	if fr.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", fr.Len())
	}
	if got := fr.captured.Value(); got != 6 {
		t.Fatalf("captured = %d, want 6", got)
	}
	if !fr.Snapshot("test", ps(10)) {
		t.Fatal("snapshot refused with free slots")
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 || len(dumps[0].Spans) != 4 {
		t.Fatalf("got %d dumps / %d spans, want 1 / 4", len(dumps), len(dumps[0].Spans))
	}
	for i, sp := range dumps[0].Spans {
		if want := ps(int64(i) + 2); sp.Start != want {
			t.Errorf("span %d starts at %v, want %v (chronological across the wrap)", i, sp.Start, want)
		}
	}
}

// TestFlightOpenSpans: begun-but-unfinished spans appear in a dump
// marked Open with End at the dump instant, and close normally
// afterwards.
func TestFlightOpenSpans(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(testSim.SpanKinds(), 16, 2, reg)
	id := fr.SpanBegin(ps(5), kind(LayerDriver, "xmit"))
	if !fr.Snapshot("mid", ps(9)) {
		t.Fatal("snapshot refused")
	}
	d := fr.Dumps()[0]
	if len(d.Spans) != 1 {
		t.Fatalf("dump has %d spans, want 1 open span", len(d.Spans))
	}
	if !d.Spans[0].Open || d.Spans[0].End != ps(9) {
		t.Errorf("open span = %+v, want Open=true End=9ns", d.Spans[0])
	}
	// The span still closes into the ring afterwards.
	fr.SpanEnd(ps(12), id)
	if fr.Len() != 1 {
		t.Fatalf("ring holds %d spans after close, want 1", fr.Len())
	}
}

// TestFlightOpenTableOverflow: more concurrently-open spans than side
// table slots count as dropped, and the overflow id's SpanEnd is a
// harmless no-op.
func TestFlightOpenTableOverflow(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(testSim.SpanKinds(), 16, 2, reg)
	ids := make([]uint64, 0, flightOpenSlots+1)
	for i := 0; i <= flightOpenSlots; i++ {
		ids = append(ids, fr.SpanBegin(ps(int64(i)), kind(LayerDriver, "deep")))
	}
	if got := reg.Counter(MetricRecorderSpansDropped).Value(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	fr.SpanEnd(ps(100), ids[len(ids)-1]) // dropped open: no-op
	if fr.Len() != 0 {
		t.Fatalf("ring holds %d spans, want 0 (overflow span was dropped)", fr.Len())
	}
	fr.SpanEnd(ps(100), ids[0]) // tracked open still closes
	if fr.Len() != 1 {
		t.Fatalf("ring holds %d spans, want 1", fr.Len())
	}
}

// TestFlightSameReasonOverwrite: a repeated trigger reuses its slot and
// keeps the freshest context.
func TestFlightSameReasonOverwrite(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(testSim.SpanKinds(), 8, 2, reg)
	fr.SpanClosed(testSim.SpanKind(LayerWire, "down", "MWr"), ps(1), ps(2))
	fr.Snapshot("fault:needsreset", ps(2))
	fr.SpanClosed(testSim.SpanKind(LayerWire, "up", "CplD"), ps(3), ps(4))
	fr.Snapshot("fault:needsreset", ps(4))

	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1 (same reason overwrites)", len(dumps))
	}
	if dumps[0].Seq != 2 || dumps[0].At != ps(4) {
		t.Errorf("dump seq/at = %d/%v, want 2/4ns (the later occurrence)", dumps[0].Seq, dumps[0].At)
	}
	if len(dumps[0].Spans) != 2 {
		t.Errorf("dump has %d spans, want 2", len(dumps[0].Spans))
	}
	if got := reg.Counter(MetricRecorderDumps).Value(); got != 2 {
		t.Errorf("recorder.dumps = %d, want 2 (both snapshots counted)", got)
	}
}

// TestFlightDumpSlotExhaustion: distinct reasons beyond the slot count
// are refused and counted, never evicting another reason's dump.
func TestFlightDumpSlotExhaustion(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(testSim.SpanKinds(), 8, 2, reg)
	if !fr.Snapshot("a", ps(1)) || !fr.Snapshot("b", ps(2)) {
		t.Fatal("first two snapshots refused")
	}
	if fr.Snapshot("c", ps(3)) {
		t.Fatal("third distinct reason took a slot; want refusal")
	}
	if got := reg.Counter(MetricRecorderDumpsDropped).Value(); got != 1 {
		t.Fatalf("recorder.dumps.dropped = %d, want 1", got)
	}
	dumps := fr.Dumps()
	if len(dumps) != 2 || dumps[0].Reason != "a" || dumps[1].Reason != "b" {
		t.Fatalf("dumps = %+v, want reasons a, b intact", dumps)
	}
	// The established reasons still refresh.
	if !fr.Snapshot("a", ps(5)) {
		t.Fatal("existing reason refused after exhaustion")
	}
}

// TestFlightDumpSpans: the Chrome-export conversion prefixes wire
// direction and tags open spans.
func TestFlightDumpSpans(t *testing.T) {
	d := FlightDump{Spans: []FlightSpan{
		{Layer: LayerWire, Dir: "down", Name: "MWr", Start: ps(0), End: ps(2)},
		{Layer: LayerDriver, Name: "xmit", Start: ps(1), End: ps(5), Open: true},
	}}
	spans := DumpSpans(d)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "down:MWr" || spans[0].ID != 1 {
		t.Errorf("wire span = %+v, want name down:MWr id 1", spans[0])
	}
	if spans[1].Name != "xmit" || len(spans[1].Attrs) != 2 || spans[1].Attrs[0] != "open" {
		t.Errorf("open span = %+v, want open attr", spans[1])
	}
}

// sessionDumpSlots is the slot count a session's recorder uses: one per
// fault class plus the worst-RTT trigger.
const sessionDumpSlots = 11

// TestFlightRecorderBudget: a recorder sized like a session's costs at
// most 64 KiB to build, a reason's first Snapshot allocates that
// reason's slot exactly once, and later snapshots of the same reason
// allocate nothing.
func TestFlightRecorderBudget(t *testing.T) {
	reg := NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr := NewFlightRecorder(testSim.SpanKinds(), 0, sessionDumpSlots, reg)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
		t.Errorf("construction allocated %d B, budget 64 KiB", b)
	}

	k := testSim.SpanKind(LayerWire, "down", "MWr")
	for i := int64(0); i < 3*DefaultFlightSpans; i++ {
		fr.SpanClosed(k, ps(i), ps(i+1))
	}
	runtime.ReadMemStats(&before)
	fr.Snapshot("worst-rtt", ps(1))
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 1 {
		t.Errorf("first snapshot of a reason made %d allocations, want 1 (its slot)", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { fr.Snapshot("worst-rtt", ps(2)) }); allocs != 0 {
		t.Errorf("repeat snapshot allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkFlightSpan is the recorder's per-span hot path: one
// begin+end pair and one closed span per op, allocation-free.
func BenchmarkFlightSpan(b *testing.B) {
	fr := NewFlightRecorder(testSim.SpanKinds(), 0, sessionDumpSlots, NewRegistry())
	open := kind(LayerDriver, "xmit")
	wire := testSim.SpanKind(LayerWire, "down", "MWr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := sim.Time(i)
		fr.SpanEnd(at+1, fr.SpanBegin(at, open))
		fr.SpanClosed(wire, at, at+2)
	}
}
