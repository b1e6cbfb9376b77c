package xdmaip

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// blockingMove is the blocking chunk loop the movers' step machine
// replaced, kept as its oracle: the lead, then per MPS chunk the engine
// overhead and the chunk's bus time, the process parked on each read
// completion and asleep through each write's serialization.
func blockingMove(p *sim.Proc, m *mover) {
	ms := m.ms
	if m.lead != 0 {
		p.Sleep(m.lead)
	}
	for off := 0; off < len(m.buf); off += ms.mps {
		c := min(len(m.buf)-off, ms.mps)
		a, chunk := m.addr+mem.Addr(off), m.buf[off:off+c]
		if m.write {
			p.Sleep(ms.chunkWrite)
			if d := ms.ep.PostDMAWrite(a, chunk).Sub(p.Now()); d > 0 {
				p.Sleep(d)
			}
			continue
		}
		p.Sleep(ms.chunkRead)
		rd := ms.ep.BeginDMARead(a, chunk)
		for {
			if rd.Await(p) {
				p.Park("dmard")
			}
			if !rd.Advance() {
				break
			}
		}
	}
}

// moveOutcome is everything a run exposes: the executed events, the
// spans, the queue counters, the end clock and the bytes moved.
type moveOutcome struct {
	trace []sim.TraceRecord
	spans []telemetry.Span
	open  int
	stats sim.QueueStats
	now   sim.Time
	data  []byte
}

// watch attaches a tracer and a span recorder to s; done collects what
// they saw.
func watch(s *sim.Sim) (done func(data []byte) moveOutcome) {
	tr := &sim.RecordingTracer{}
	rec := telemetry.NewRecorder(s.SpanKinds(), 0)
	s.SetTracer(tr)
	s.SetSpanSink(rec)
	return func(data []byte) moveOutcome {
		return moveOutcome{tr.Records, rec.Spans(), len(rec.OpenSpans()), s.Stats(), s.Now(), data}
	}
}

// compareMoves fails unless the step machine's run matches the oracle's.
func compareMoves(t *testing.T, steps, oracle moveOutcome) {
	t.Helper()
	if len(oracle.trace) == 0 || len(oracle.spans) == 0 {
		t.Fatal("the oracle run traced nothing")
	}
	if !slices.Equal(steps.trace, oracle.trace) {
		t.Fatalf("trace (%d events) differs from the oracle's (%d events)", len(steps.trace), len(oracle.trace))
	}
	if !reflect.DeepEqual(steps.spans, oracle.spans) || steps.open != oracle.open {
		t.Fatalf("spans (%d, %d open) differ from the oracle's (%d, %d open)", len(steps.spans), steps.open, len(oracle.spans), oracle.open)
	}
	if steps.stats != oracle.stats {
		t.Fatalf("queue stats %+v, oracle %+v", steps.stats, oracle.stats)
	}
	if steps.now != oracle.now {
		t.Fatalf("ends at %v, oracle at %v", steps.now, oracle.now)
	}
	if !bytes.Equal(steps.data, oracle.data) {
		t.Fatal("moved bytes differ from the oracle's")
	}
}

// portSizes are the port transfer sizes: empty, below, at and around
// MPS and MRRS, and several chunks.
var portSizes = []int{0, 1, 32, 127, 128, 129, 511, 512, 600, 1024, 2000}

// runPortMoves has two fabric processes read and write every size in
// portSizes through one port at once, on the step machine or through
// the oracle loop.
func runPortMoves(t *testing.T, blocking bool) moveOutcome {
	s := sim.New()
	hostMem := mem.New(1 << 20)
	rc := pcie.NewRootComplex(s, hostMem, pcie.DefaultCosts())
	cs := pcie.NewConfigSpace(XilinxVendorID, XDMADeviceID, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := rc.Attach("dut", cs, pcie.DefaultGen2x2())
	ep.SetBarHandlers(0, pcie.BarHandlers{})
	port := NewPort(s, ep, fpga.Default125MHz())
	if blocking {
		port.movers.blocking = blockingMove
	}
	for i := 0; i < 1<<16; i++ {
		hostMem.PutU16(mem.Addr(2*i), uint16(i*7))
	}
	s.Go("enum", func(p *sim.Proc) { rc.Enumerate(p) })
	s.RunUntil(sim.Time(sim.Us(50)))
	done := watch(s)
	for f := 0; f < 2; f++ {
		s.GoAfter(sim.Duration(f)*sim.Ns(40), fmt.Sprintf("fabric%d", f), func(p *sim.Proc) {
			buf := make([]byte, 2048)
			for i, n := range portSizes {
				src := mem.Addr(0x1000*(i+1) + 64*f)
				port.HostReadInto(p, src, buf[:n])
				port.HostWrite(p, src+0x80000, buf[:n])
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return done(hostMem.Read(0x80000, 0x10000))
}

// runVendorMoves runs an H2C descriptor chain signalled by MSI-X, then
// a C2H run that reports by poll-mode writeback, on the step machine or
// through the oracle loop.
func runVendorMoves(t *testing.T, blocking bool) moveOutcome {
	s, rc, dev, info := newVendorTestbed(t)
	if blocking {
		dev.movers.blocking = blockingMove
	}
	bar1 := info.BAR[1]
	const src, wb, back = 0x10000, 0x40000, 0x30000
	for i := 0; i < 1012; i++ {
		rc.Mem.PutU16(src+mem.Addr(2*i), uint16(i*13))
	}
	Descriptor{Len: 1000, Src: src, Dst: 0x100, Next: 0x20020}.Encode(rc.Mem, 0x20000)
	Descriptor{Control: DescStop | DescEOP, Len: 12, Src: src + 1000, Dst: 0x100 + 1000}.Encode(rc.Mem, 0x20020)
	Descriptor{Control: DescStop | DescEOP, Len: 1012, Src: 0x100, Dst: back}.Encode(rc.Mem, 0x20040)
	irq := sim.NewCond(s, "irq")
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) { irq.Broadcast() })
	done := watch(s)
	s.Go("driver", func(p *sim.Proc) {
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQChanEnable, 4, 0x1)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescLo, 4, 0x20000)
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
		irq.Wait(p)
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, 0)
		rc.MMIOWrite(p, bar1+C2HSGDMABase+RegDescLo, 4, 0x20040)
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegPollWbLo, 4, wb)
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, CtrlRun|CtrlPollModeWB)
		for rc.Mem.U32(wb)&WbDone == 0 {
			p.Sleep(sim.Ns(100))
		}
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, 0)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rc.Mem.Read(back, 1012); !bytes.Equal(got, rc.Mem.Read(src, 1012)) {
		t.Fatal("the C2H run did not return the H2C chain's bytes")
	}
	return done(rc.Mem.Read(back, 1012))
}

// TestMoversMatchBlockingLoop: port reads and writes of every size from
// two processes at once, and a vendor channel's descriptor fetches,
// H2C and C2H data moves and poll-mode writeback, give the same event
// trace, spans, queue counters, end clock and data on the step machine
// as through the blocking chunk loop.
func TestMoversMatchBlockingLoop(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(t *testing.T, blocking bool) moveOutcome
	}{
		{"port", runPortMoves},
		{"vendor", runVendorMoves},
	} {
		t.Run(c.name, func(t *testing.T) {
			compareMoves(t, c.run(t, false), c.run(t, true))
		})
	}
}

// BenchmarkPortTransfer measures one port transfer on an idle link:
// engine programming, then per MPS chunk the engine overhead and a bus
// round trip (reads) or a posted write's serialization (writes).
func BenchmarkPortTransfer(b *testing.B) {
	for _, write := range []bool{false, true} {
		for _, n := range []int{32, 1024} {
			dir := "read"
			if write {
				dir = "write"
			}
			b.Run(fmt.Sprintf("%s/%dB", dir, n), func(b *testing.B) {
				s := sim.New()
				hostMem := mem.New(1 << 16)
				rc := pcie.NewRootComplex(s, hostMem, pcie.DefaultCosts())
				cs := pcie.NewConfigSpace(XilinxVendorID, XDMADeviceID, 0, 0, 0)
				cs.SetBARSize(0, 4096)
				ep := rc.Attach("dut", cs, pcie.DefaultGen2x2())
				ep.SetBarHandlers(0, pcie.BarHandlers{})
				port := NewPort(s, ep, fpga.Default125MHz())
				s.Go("enum", func(p *sim.Proc) { rc.Enumerate(p) })
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, n)
				s.Go("fabric", func(p *sim.Proc) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if write {
							port.HostWrite(p, 0x1000, buf)
						} else {
							port.HostReadInto(p, 0x1000, buf)
						}
					}
				})
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
