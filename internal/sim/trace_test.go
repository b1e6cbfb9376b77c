package sim

import (
	"strings"
	"testing"
)

func TestRecordingTracerDropped(t *testing.T) {
	s := New()
	tr := &RecordingTracer{Max: 2}
	s.SetTracer(tr)
	for i := 0; i < 5; i++ {
		s.After(Duration(i+1)*Nanosecond, "ev", func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 2 {
		t.Fatalf("records = %d, want 2 (capped)", len(tr.Records))
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", tr.Dropped())
	}
}

type sinkLog struct {
	kinds  *SpanKinds
	begins []string
	ends   []uint64
	closed []string
	next   uint64
}

func (l *sinkLog) SpanBegin(at Time, k SpanKind) uint64 {
	l.next++
	info := l.kinds.Info(k)
	l.begins = append(l.begins, info.Layer+"/"+info.Label())
	return l.next
}
func (l *sinkLog) SpanEnd(at Time, id uint64) { l.ends = append(l.ends, id) }
func (l *sinkLog) SpanClosed(k SpanKind, start, end Time) {
	info := l.kinds.Info(k)
	l.closed = append(l.closed, info.Layer+"/"+info.Label())
}

func TestBeginSpanWithAndWithoutSink(t *testing.T) {
	s := New()
	xmit := s.SpanKind("driver", "", "xmit")
	// No sink: zero SpanRef, End is a safe no-op.
	s.BeginSpan(s.SpanKind("driver", "", "noop")).End()

	l := &sinkLog{kinds: s.SpanKinds()}
	s.SetSpanSink(l)
	ref := s.BeginSpan(xmit)
	ref.End()
	s.SetSpanSink(nil)
	// End after the sink is removed must not panic or reach the sink.
	ref.End()

	if len(l.begins) != 1 || l.begins[0] != "driver/xmit" {
		t.Fatalf("begins = %v", l.begins)
	}
	if len(l.ends) != 1 || l.ends[0] != 1 {
		t.Fatalf("ends = %v", l.ends)
	}
}

// Kinds intern by triple, and a closed span reaches each installed
// sink exactly once and no sink that is not installed.
func TestSpanKindsAndSpanClosed(t *testing.T) {
	s := New()
	a := s.SpanKind("wire", "down", "MWr")
	b := s.SpanKind("wire", "up", "MWr")
	if a == 0 || a == b || s.SpanKind("wire", "down", "MWr") != a {
		t.Fatalf("kinds a=%d b=%d: want distinct non-zero ids, stable per triple", a, b)
	}
	if got := s.SpanKinds().Info(b).Label(); got != "up:MWr" {
		t.Fatalf("label = %q, want up:MWr", got)
	}
	verbose := &sinkLog{kinds: s.SpanKinds()}
	flight := &sinkLog{kinds: s.SpanKinds()}
	check := func(step string, nv, nf int) {
		t.Helper()
		if len(verbose.closed) != nv || len(flight.closed) != nf {
			t.Fatalf("%s: closed verbose %v, flight %v; want %d and %d", step, verbose.closed, flight.closed, nv, nf)
		}
	}
	s.SpanClosed(a, 0, Time(10)) // no sink installed: a no-op
	s.SetSpanSink(verbose)
	s.SpanClosed(a, 0, Time(10))
	check("verbose only", 1, 0)
	s.SetSpanSink(nil)
	s.SetFlightSink(flight)
	s.SpanClosed(a, 0, Time(10))
	check("flight only", 1, 1)
	s.SetSpanSink(verbose)
	s.SpanClosed(b, 0, Time(10))
	check("both", 2, 2)
	s.SetSpanSink(nil)
	s.SetFlightSink(nil)
	s.SpanClosed(b, 0, Time(10))
	check("none", 2, 2)
	if verbose.closed[0] != "wire/down:MWr" || verbose.closed[1] != "wire/up:MWr" || flight.closed[1] != "wire/up:MWr" {
		t.Fatalf("closed: verbose %v, flight %v", verbose.closed, flight.closed)
	}
	if len(verbose.begins)+len(flight.begins)+len(verbose.ends)+len(flight.ends) != 0 {
		t.Fatal("SpanClosed opened or ended a span")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Info of an unregistered kind did not panic")
		}
	}()
	s.SpanKinds().Info(SpanKind(99))
}

// nopTracer observes every event and keeps nothing.
type nopTracer struct{}

func (nopTracer) Event(Time, string) {}

// A traced process wake names its event from the interned (label,
// process) pair, so watching a run allocates nothing per wake, and the
// composed names read "label:process".
func TestTracedStepZeroAlloc(t *testing.T) {
	s := New()
	tr := &RecordingTracer{Max: 4}
	s.SetTracer(tr)
	for _, name := range []string{"a", "b"} {
		s.Go(name, func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Sleep(Ns(10))
			}
		})
	}
	for i := 0; i < 4; i++ {
		s.Step()
	}
	var names []string
	for _, r := range tr.Records {
		names = append(names, r.Name)
	}
	if got := strings.Join(names, " "); got != "start:a start:b wake:a wake:b" {
		t.Fatalf("traced event names = %q", got)
	}
	s.SetTracer(nopTracer{})
	if n := testing.AllocsPerRun(200, func() { s.Step() }); n != 0 {
		t.Fatalf("traced Step allocates %v objects per event, want 0", n)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
