package sim

import "fmt"

// RecordingTracer stores every executed event; useful in tests that
// assert ordering, and for offline latency attribution. When Max is
// set and reached, further events are counted as dropped instead of
// silently vanishing — callers should check Dropped before treating
// the record slice as complete.
type RecordingTracer struct {
	Records []TraceRecord
	Max     int // 0 = unlimited

	dropped int
}

// TraceRecord is a single executed event.
type TraceRecord struct {
	At   Time
	Name string
}

// Event implements Tracer.
func (t *RecordingTracer) Event(at Time, name string) {
	if t.Max > 0 && len(t.Records) >= t.Max {
		t.dropped++
		return
	}
	t.Records = append(t.Records, TraceRecord{at, name})
}

// Dropped reports how many events were discarded because the Max cap
// was reached. A non-zero value means Records is an incomplete trace.
func (t *RecordingTracer) Dropped() int { return t.dropped }

// SpanKind is the interned identity of a span's (layer, dir, name)
// triple. Components register their kinds once per Sim, at
// construction (Sim.SpanKind); from then on the span channel carries
// only this small id, so a sink can keep fixed-size, pointer-free
// records and resolve the strings only when it renders them. The zero
// SpanKind is never handed out.
type SpanKind uint32

// SpanKindInfo is the triple a SpanKind stands for. Dir is a direction
// qualifier ("down"/"up" for wire spans) and empty elsewhere.
type SpanKindInfo struct {
	Layer, Dir, Name string
}

// Label is the span's display name: Name, prefixed "Dir:" when the
// kind has a direction.
func (i SpanKindInfo) Label() string {
	if i.Dir == "" {
		return i.Name
	}
	return i.Dir + ":" + i.Name
}

// SpanKinds is a Sim's span-kind table. It only grows, so every id it
// hands out stays valid for the Sim's life.
type SpanKinds struct {
	infos []SpanKindInfo // infos[k-1] describes kind k
	ids   map[SpanKindInfo]SpanKind
}

// Info returns the triple registered under k. An id the table never
// handed out panics: it can only come from another Sim.
func (t *SpanKinds) Info(k SpanKind) SpanKindInfo {
	if k == 0 || int(k) > len(t.infos) {
		panic(fmt.Sprintf("sim: unregistered span kind %d", k))
	}
	return t.infos[k-1]
}

// SpanKind registers the (layer, dir, name) triple and returns its id;
// registering the same triple again returns the same id. Call it when
// a component is built, not per span: the first registration of a
// triple allocates.
func (s *Sim) SpanKind(layer, dir, name string) SpanKind {
	t := &s.kinds
	info := SpanKindInfo{Layer: layer, Dir: dir, Name: name}
	if k, ok := t.ids[info]; ok {
		return k
	}
	if t.ids == nil {
		t.ids = make(map[SpanKindInfo]SpanKind)
	}
	t.infos = append(t.infos, info)
	k := SpanKind(len(t.infos))
	t.ids[info] = k
	return k
}

// SpanKinds returns the Sim's kind table, which span sinks use to
// resolve the ids they store.
func (s *Sim) SpanKinds() *SpanKinds { return &s.kinds }

// SpanSink receives layer-attributed spans keyed by SpanKind. Unlike
// Tracer, which sees every scheduled event by name, a SpanSink sees
// intervals: model code brackets meaningful work (a syscall, an ISR, a
// DMA engine run) with BeginSpan/End so a breakdown falls out of a fold
// over spans rather than string parsing.
//
// SpanBegin returns an opaque id that the matching SpanEnd presents.
// Implementations must tolerate SpanEnd for unknown ids (a sink
// installed mid-interval sees unmatched ends). SpanClosed records an
// interval whose endpoints are already known.
type SpanSink interface {
	SpanBegin(at Time, k SpanKind) uint64
	SpanEnd(at Time, id uint64)
	SpanClosed(k SpanKind, start, end Time)
}

// SetSpanSink installs ss as the verbose span sink (nil disables span
// tracing). Span emission is a pure recording hook: it never schedules
// events and cannot perturb simulation timing, and no model code reads
// whether a sink is installed.
func (s *Sim) SetSpanSink(ss SpanSink) { s.spans = ss }

// SetFlightSink installs fs as the always-on span sink (nil disables
// it). A flight sink stays installed for a session's whole life, so
// every one of its methods must be allocation-free in steady state.
// Like span emission, it never schedules events and cannot perturb
// simulation timing.
func (s *Sim) SetFlightSink(fs SpanSink) { s.flight = fs }

// SpanClosed records an already-closed span of kind k in both sinks,
// whichever are installed. Model code that knows an interval's end
// when it starts (the wire layer prices a TLP's queue, serialization
// and flight as it queues it) logs it this way, with no open span to
// carry and nothing to allocate.
func (s *Sim) SpanClosed(k SpanKind, start, end Time) {
	if s.spans != nil {
		s.spans.SpanClosed(k, start, end)
	}
	if s.flight != nil {
		s.flight.SpanClosed(k, start, end)
	}
}

// SpanRef is a handle to an in-flight span. The zero value (returned
// when no sink is installed) is valid and End on it is a no-op.
type SpanRef struct {
	s   *Sim
	id  uint64
	fid uint64
}

// BeginSpan opens a span of kind k at the current simulation time. It
// is emitted to the span sink and the flight sink independently;
// either may be absent.
func (s *Sim) BeginSpan(k SpanKind) SpanRef {
	var r SpanRef
	if s.spans != nil {
		r.s = s
		r.id = s.spans.SpanBegin(s.now, k)
	}
	if s.flight != nil {
		r.s = s
		r.fid = s.flight.SpanBegin(s.now, k)
	}
	return r
}

// End closes the span at the current simulation time. Safe to call on
// the zero SpanRef or after the sink was removed.
func (r SpanRef) End() {
	if r.s == nil {
		return
	}
	if r.s.spans != nil && r.id != 0 {
		r.s.spans.SpanEnd(r.s.now, r.id)
	}
	if r.s.flight != nil && r.fid != 0 {
		r.s.flight.SpanEnd(r.s.now, r.fid)
	}
}
