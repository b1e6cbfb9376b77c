package telemetry

import (
	"math/bits"
	"sort"

	"fpgavirtio/internal/sim"
)

// Flight recorder: an always-on, allocation-free ring of the most
// recent spans in a session. Unlike the Recorder (installed only
// around explicitly traced operations), the flight recorder is
// installed with sim.SetFlightSink so it can stay enabled for the
// entire run without perturbing the 0-alloc hot path. Both sinks see
// the same spans: model code emits one stream whichever is installed,
// so neither changes the run. When something noteworthy happens — a
// fault-recovery fires, a new worst-case RTT lands — Snapshot freezes
// the ring into that reason's dump slot, giving a post-mortem trace
// of the packets leading up to the event without anyone having asked
// for tracing in advance.
//
// Ring entries and dump slots hold 24-byte, pointer-free records (two
// times and a sim.SpanKind); the strings behind a kind are looked up
// only when Dumps renders the slots. The default recorder's ring is
// 48 KiB, and each reason's dump slot (about 50 KiB) is allocated on
// that reason's first Snapshot, so a fault-free run pays for one slot.

// Default sizing: the ring holds the last 20-30 round trips' worth
// of spans (a net ping closes about 100, TLPs included; an XDMA round
// trip about 70), and a handful of dump slots covers the distinct
// trigger reasons in one run.
const (
	DefaultFlightSpans = 2048
	DefaultFlightDumps = 8

	// flightOpenSlots bounds concurrently-open spans tracked by the
	// recorder: one bit each in a uint64. The sim's strict hand-off
	// discipline keeps real nesting depth in single digits; 64 leaves
	// generous headroom.
	flightOpenSlots = 64
	// flightSlotBits is the low part of a span id that names its open
	// slot; the rest is a per-recorder sequence number.
	flightSlotBits = 6
)

// FlightSpan is one interval captured by the flight recorder. Dir is
// set for wire-level records (TLP direction) and empty elsewhere.
// Open marks spans still in progress when a dump was taken; their End
// is the dump instant.
type FlightSpan struct {
	Layer string   `json:"layer"`
	Dir   string   `json:"dir,omitempty"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ps"`
	End   sim.Time `json:"end_ps"`
	Open  bool     `json:"open,omitempty"`
}

// Duration is the span's extent.
func (s FlightSpan) Duration() sim.Duration { return s.End.Sub(s.Start) }

// FlightDump is one frozen snapshot of the ring.
type FlightDump struct {
	// Reason names the trigger ("fault:needsreset", "worst-rtt", ...).
	Reason string `json:"reason"`
	// At is the sim time the snapshot was taken.
	At sim.Time `json:"at_ps"`
	// Seq orders dumps within a run (1-based; later overwrites of the
	// same reason keep the slot but bump the Seq).
	Seq int64 `json:"seq"`
	// Spans are the captured intervals in chronological order.
	Spans []FlightSpan `json:"spans"`
}

// flightRec is the stored form of a FlightSpan.
type flightRec struct {
	start, end sim.Time
	kind       sim.SpanKind
	open       bool
}

type flightOpen struct {
	id    uint64
	start sim.Time
	kind  sim.SpanKind
}

type flightSlot struct {
	used   bool
	reason string
	at     sim.Time
	seq    int64
	recs   []flightRec // ring+open capacity, allocated on first use
}

// FlightRecorder implements sim.SpanSink with a fixed-size record
// ring, a fixed open-span side table, and one dump slot per reason.
// After construction only a reason's first Snapshot allocates, so a
// session can leave it installed for a 50k-packet sweep without moving
// the alloc budget.
//
// Dump slots are keyed by reason: a second snapshot with the same
// reason overwrites the earlier one (keeping the freshest context for
// that trigger), and snapshots beyond the slot count are counted as
// dropped rather than evicting a different reason.
type FlightRecorder struct {
	kinds *sim.SpanKinds

	ring []flightRec
	head int // next write position
	n    int // filled entries, <= len(ring)

	open     [flightOpenSlots]flightOpen
	openUsed uint64 // bit i set: open[i] holds a live span
	nextID   uint64

	slots   []flightSlot
	dumpSeq int64

	captured     *Counter
	dropped      *Counter
	dumps        *Counter
	dumpsDropped *Counter
}

// NewFlightRecorder returns a recorder that resolves span kinds in
// kinds, with spanCap ring entries and dumpSlots snapshot slots
// (defaults apply for values <= 0), registering its recorder.*
// counters in reg (which may be nil).
func NewFlightRecorder(kinds *sim.SpanKinds, spanCap, dumpSlots int, reg *Registry) *FlightRecorder {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if dumpSlots <= 0 {
		dumpSlots = DefaultFlightDumps
	}
	return &FlightRecorder{
		kinds:        kinds,
		ring:         make([]flightRec, spanCap),
		slots:        make([]flightSlot, dumpSlots),
		captured:     reg.Counter(MetricRecorderSpansCaptured),
		dropped:      reg.Counter(MetricRecorderSpansDropped),
		dumps:        reg.Counter(MetricRecorderDumps),
		dumpsDropped: reg.Counter(MetricRecorderDumpsDropped),
	}
}

// SpanBegin implements sim.SpanSink: it opens the span in the lowest
// free side-table slot and returns an id that names the slot. When
// the table is full the span is counted as dropped and its eventual
// SpanEnd is a no-op.
func (fr *FlightRecorder) SpanBegin(at sim.Time, k sim.SpanKind) uint64 {
	fr.nextID++
	id := fr.nextID << flightSlotBits
	free := ^fr.openUsed
	if free == 0 {
		fr.dropped.Inc()
		return id
	}
	slot := bits.TrailingZeros64(free)
	id |= uint64(slot)
	fr.open[slot] = flightOpen{id: id, start: at, kind: k}
	fr.openUsed |= 1 << slot
	return id
}

// SpanEnd implements sim.SpanSink: it closes the span opened under id
// and pushes it into the ring. Unknown ids (dropped opens, or spans
// begun before the recorder was installed) are ignored.
func (fr *FlightRecorder) SpanEnd(at sim.Time, id uint64) {
	slot := id & (flightOpenSlots - 1)
	o := &fr.open[slot]
	if fr.openUsed&(1<<slot) == 0 || o.id != id {
		return
	}
	fr.push(flightRec{start: o.start, end: at, kind: o.kind})
	fr.openUsed &^= 1 << slot
}

// SpanClosed implements sim.SpanSink: it records an interval whose
// endpoints are already known — each TLP and each MSI-X delivery is
// logged this way, without the open-table round trip.
func (fr *FlightRecorder) SpanClosed(k sim.SpanKind, start, end sim.Time) {
	fr.push(flightRec{start: start, end: end, kind: k})
}

func (fr *FlightRecorder) push(r flightRec) {
	fr.ring[fr.head] = r
	fr.head++
	if fr.head == len(fr.ring) {
		fr.head = 0
	}
	if fr.n < len(fr.ring) {
		fr.n++
	}
	fr.captured.Inc()
}

// Snapshot freezes the current ring (plus still-open spans, marked
// Open with End=at) into a dump slot and reports whether a slot was
// available. A reason seen before reuses its slot — the dump always
// reflects the latest occurrence. Only a reason's first snapshot
// allocates: it sizes that reason's slot.
func (fr *FlightRecorder) Snapshot(reason string, at sim.Time) bool {
	slot := -1
	for i := range fr.slots {
		if fr.slots[i].used && fr.slots[i].reason == reason {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := range fr.slots {
			if !fr.slots[i].used {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		fr.dumpsDropped.Inc()
		return false
	}
	s := &fr.slots[slot]
	if s.recs == nil {
		s.recs = make([]flightRec, 0, len(fr.ring)+flightOpenSlots)
	}
	s.used = true
	s.reason = reason
	s.at = at
	fr.dumpSeq++
	s.seq = fr.dumpSeq
	s.recs = s.recs[:0]
	// Chronological ring copy: oldest entry is at head when the ring
	// has wrapped, at 0 otherwise.
	if fr.n == len(fr.ring) {
		s.recs = append(s.recs, fr.ring[fr.head:]...)
		s.recs = append(s.recs, fr.ring[:fr.head]...)
	} else {
		s.recs = append(s.recs, fr.ring[:fr.n]...)
	}
	// Open spans in slot order, which is the order a scan of the
	// side table would find them.
	for used := fr.openUsed; used != 0; used &= used - 1 {
		o := &fr.open[bits.TrailingZeros64(used)]
		s.recs = append(s.recs, flightRec{start: o.start, end: at, kind: o.kind, open: true})
	}
	fr.dumps.Inc()
	return true
}

// Dumps returns the taken snapshots, with every record resolved to
// its layer, direction and name, ordered by Seq. Cold path: allocates.
func (fr *FlightRecorder) Dumps() []FlightDump {
	var out []FlightDump
	for i := range fr.slots {
		s := &fr.slots[i]
		if !s.used {
			continue
		}
		var spans []FlightSpan
		for _, r := range s.recs {
			info := fr.kinds.Info(r.kind)
			spans = append(spans, FlightSpan{
				Layer: info.Layer, Dir: info.Dir, Name: info.Name,
				Start: r.start, End: r.end, Open: r.open,
			})
		}
		out = append(out, FlightDump{Reason: s.reason, At: s.at, Seq: s.seq, Spans: spans})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len reports the spans currently resident in the ring.
func (fr *FlightRecorder) Len() int { return fr.n }

// DumpSpans converts a dump's flight spans to telemetry Spans so the
// Chrome exporter can render them (IDs are synthesized 1..n in
// chronological order; open spans get an "open=true" attr).
func DumpSpans(d FlightDump) []Span {
	out := make([]Span, 0, len(d.Spans))
	for i, fs := range d.Spans {
		name := fs.Name
		if fs.Dir != "" {
			name = fs.Dir + ":" + fs.Name
		}
		sp := Span{
			ID:    uint64(i + 1),
			Layer: fs.Layer,
			Name:  name,
			Start: fs.Start,
			End:   fs.End,
		}
		if fs.Open {
			sp.Attrs = []string{"open", "true"}
		}
		out = append(out, sp)
	}
	return out
}
