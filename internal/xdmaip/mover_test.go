package xdmaip

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fpgavirtio/internal/faults"
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

// blockingRun is the blocking engine loop the channels' step machine
// replaced, kept as its oracle: wait for a rising Run edge, walk the
// descriptor list, move data through movers.move, then report and
// interrupt. It counts each finished run in *runs.
func blockingRun(p *sim.Proc, ch *channel, runs *int) {
	d := ch.dev
	for {
		for ch.ctrl()&CtrlRun != 0 { // require Run low first (edge semantics)
			ch.kick.Wait(p)
		}
		for ch.ctrl()&CtrlRun == 0 {
			ch.kick.Wait(p)
		}
		ch.counter.Begin(p.Now())
		sp := d.sim.BeginSpan(ch.span)
		ch.runs.Inc()
		ch.setStatus(StatusBusy)
		p.Sleep(d.clk.Cycles(engineStartCycles))
		failed := d.ep.Faults().Fire(faults.EngineErr)
		if !failed {
			descAddr := mem.Addr(uint64(d.regs.Get(ch.sgdma+RegDescLo)) | uint64(d.regs.Get(ch.sgdma+RegDescHi))<<32)
			completed := uint32(0)
			for {
				d.movers.move(p, d.clk.Cycles(descFetchSetupCycles), descAddr, ch.descBuf[:], false)
				desc, err := DecodeDescriptor(ch.descBuf[:])
				if err != nil {
					if d.ep.Faults() != nil {
						failed = true
						break
					}
					panic(fmt.Sprintf("xdmaip: %s: %v", ch.name, err))
				}
				n := int(desc.Len)
				ch.descs.Inc()
				ch.dataBytes.Add(int64(n))
				if cap(ch.dataBuf) < n {
					ch.dataBuf = make([]byte, n)
				}
				data := ch.dataBuf[:n]
				program, axi := d.clk.Cycles(programCycles), d.clk.Cycles(d.clk.CyclesFor(n, AXIWidthBytes))
				if ch.h2c {
					d.movers.move(p, program, mem.Addr(desc.Src), data, false)
					p.Sleep(axi)
					d.bram.Write(mem.Addr(desc.Dst), data)
				} else {
					p.Sleep(program)
					d.bram.ReadInto(mem.Addr(desc.Src), data)
					d.movers.move(p, axi, mem.Addr(desc.Dst), data, true)
				}
				completed++
				d.regs.Set(ch.base+RegChanCompleted, completed)
				if desc.Control&DescStop != 0 {
					break
				}
				descAddr = mem.Addr(desc.Next)
			}
		}
		p.Sleep(d.clk.Cycles(writebackCycles))
		if failed {
			ch.setStatus(StatusDescStopped | StatusDescError)
		} else {
			ch.setStatus(StatusDescStopped | StatusDescComplete)
		}
		ch.counter.End(p.Now())
		sp.End()
		if ch.ctrl()&CtrlPollModeWB != 0 {
			wb := uint32(WbDone)
			if failed {
				wb |= WbErr
			}
			ch.wbBuf[0] = byte(wb)
			ch.wbBuf[1] = byte(wb >> 8)
			ch.wbBuf[2] = byte(wb >> 16)
			ch.wbBuf[3] = byte(wb >> 24)
			wbAddr := mem.Addr(uint64(d.regs.Get(ch.base+RegPollWbLo)) | uint64(d.regs.Get(ch.base+RegPollWbHi))<<32)
			d.movers.move(p, 0, wbAddr, ch.wbBuf[:], true)
		}
		if ch.ctrl()&CtrlIEDescComplete != 0 &&
			d.regs.Get(IRQBlockBase+RegIRQChanEnable)&ch.irqBit != 0 {
			d.ep.RaiseMSIX(ch.vector)
		}
		if ch.h2c && d.cfg.NotifyOnH2CComplete && !failed {
			delay := d.cfg.UserLogicDelayCycles
			if delay == 0 {
				delay = 250
			}
			d.sim.After(d.clk.Cycles(delay), ch.name+".userirq", func() {
				d.RaiseUserIRQ(0)
			})
		}
		*runs++
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

// vendorArm is one vendor run TestMoversMatchBlockingLoop compares.
type vendorArm struct {
	name   string
	notify bool   // NotifyOnH2CComplete
	plan   string // fault plan, "" for none
	errs   int    // H2C runs that must end in the descriptor-error status
}

// vendorArms: a clean run; an injected engine error; a descriptor a
// fault corrupted (the tenth DMA read request is the second H2C
// descriptor's fetch: its flipped control byte clears DescStop, so the
// engine fetches a zeroed descriptor with no magic); and the
// data-ready user interrupt.
var vendorArms = []vendorArm{
	{name: "clean"},
	{name: "engineerr", plan: "engineerr:every=1:count=1", errs: 1},
	{name: "corrupt", plan: "dmarderr:every=10:count=1", errs: 1},
	{name: "notify", notify: true},
}

// runVendorMoves runs an H2C descriptor chain signalled by MSI-X,
// restarted until it ends without a descriptor error, then a C2H run
// that reports by poll-mode writeback. It runs the engines on their
// step machine, or with oracle set through blockingRun and
// blockingMove, and then fails unless the oracle loop finished every
// run.
func runVendorMoves(t *testing.T, arm vendorArm, oracle bool) moveOutcome {
	cfg := DefaultConfig()
	cfg.NotifyOnH2CComplete = arm.notify
	oracleRuns := 0
	var setup func(d *VendorDevice)
	if oracle {
		cfg.engineLoop = func(p *sim.Proc, ch *channel) { blockingRun(p, ch, &oracleRuns) }
		setup = func(d *VendorDevice) { d.movers.blocking = blockingMove }
	}
	s, rc, _, info := newVendorBed(t, cfg, setup)
	if arm.plan != "" {
		plan, err := faults.Parse(arm.plan)
		if err != nil {
			t.Fatal(err)
		}
		rc.SetFaults(faults.NewInjector(plan, sim.NewRNG(1), telemetry.NewRegistry()))
	}
	bar1 := info.BAR[1]
	const src, wb, back = 0x10000, 0x40000, 0x30000
	for i := 0; i < 1012; i++ {
		rc.Mem.PutU16(src+mem.Addr(2*i), uint16(i*13))
	}
	Descriptor{Len: 1000, Src: src, Dst: 0x100, Next: 0x20020}.Encode(rc.Mem, 0x20000)
	Descriptor{Control: DescStop | DescEOP, Len: 12, Src: src + 1000, Dst: 0x100 + 1000}.Encode(rc.Mem, 0x20020)
	Descriptor{Control: DescStop | DescEOP, Len: 1012, Src: 0x100, Dst: back}.Encode(rc.Mem, 0x20040)
	var irqs [VecUserBase + 1]int
	irq := sim.NewCond(s, "irq")
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) {
		irqs[vec]++
		irq.Broadcast()
	})
	errs := 0
	done := watch(s)
	s.Go("driver", func(p *sim.Proc) {
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQChanEnable, 4, 0x1)
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQUserEnable, 4, 0x1)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescLo, 4, 0x20000)
		for {
			seen := irqs[VecH2C]
			rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
			for irqs[VecH2C] == seen {
				irq.Wait(p)
			}
			rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, 0)
			if rc.MMIORead(p, bar1+H2CChannelBase+RegChanStatus+4, 4)&StatusDescError == 0 {
				break
			}
			errs++
		}
		rc.MMIOWrite(p, bar1+C2HSGDMABase+RegDescLo, 4, 0x20040)
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegPollWbLo, 4, wb)
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, CtrlRun|CtrlPollModeWB)
		for rc.Mem.U32(wb)&WbDone == 0 {
			p.Sleep(sim.Ns(100))
		}
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, 0)
		p.Sleep(sim.Us(3)) // past the data-ready interrupt
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rc.Mem.Read(back, 1012); !bytes.Equal(got, rc.Mem.Read(src, 1012)) {
		t.Fatal("the C2H run did not return the H2C chain's bytes")
	}
	if errs != arm.errs {
		t.Fatalf("%d H2C runs ended in a descriptor error, want %d", errs, arm.errs)
	}
	wantUser := 0
	if arm.notify {
		wantUser = 1
	}
	if irqs[VecUserBase] != wantUser {
		t.Fatalf("%d data-ready interrupts, want %d", irqs[VecUserBase], wantUser)
	}
	if want := 2 + errs; oracle && oracleRuns != want {
		t.Fatalf("the oracle loop finished %d runs, want %d", oracleRuns, want)
	}
	return done(rc.Mem.Read(back, 1012))
}

// TestMoversMatchBlockingLoop: port reads and writes of every size from
// two processes at once, and a vendor device's engine runs (descriptor
// fetches, H2C and C2H data moves, poll-mode writeback, an injected
// engine error, a fault-corrupted descriptor, the data-ready user
// interrupt), give the same event trace, spans, queue counters, end
// clock and data on the step machines as through the blocking loops
// they replaced.
func TestMoversMatchBlockingLoop(t *testing.T) {
	t.Run("port", func(t *testing.T) {
		compareMoves(t, runPortMoves(t, false), runPortMoves(t, true))
	})
	t.Run("vendor", func(t *testing.T) {
		for _, arm := range vendorArms {
			t.Run(arm.name, func(t *testing.T) {
				compareMoves(t, runVendorMoves(t, arm, false), runVendorMoves(t, arm, true))
			})
		}
	})
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

// BenchmarkVendorRun measures one engine run of a one-descriptor list
// on an idle link: the descriptor fetch, the data move (an H2C read
// from the host into the BRAM, or a C2H write from the BRAM to the
// host), the writeback and the completion interrupt. The IRQ sink
// drops Run, and a callback queued behind the engine's wake raises it
// again for the next run, so no process but the engine's step machine
// takes part.
func BenchmarkVendorRun(b *testing.B) {
	for _, h2c := range []bool{true, false} {
		for _, n := range []int{64, 1024} {
			dir := "c2h"
			if h2c {
				dir = "h2c"
			}
			b.Run(fmt.Sprintf("%s/%dB", dir, n), func(b *testing.B) {
				s, rc, dev, _ := newVendorTestbed(b)
				ch := dev.c2h
				desc := Descriptor{Control: DescStop | DescEOP, Len: uint32(n), Src: 0, Dst: 0x10000}
				if h2c {
					ch = dev.h2c
					desc.Src, desc.Dst = 0x10000, 0
				}
				desc.Encode(rc.Mem, 0x20000)
				dev.regs.Set(IRQBlockBase+RegIRQChanEnable, ch.irqBit)
				dev.regs.Set(ch.sgdma+RegDescLo, 0x20000)
				ctrl := ch.base + RegChanControl
				start := func() { dev.regs.Write(ctrl, CtrlRun|CtrlIEDescComplete) }
				left := b.N
				rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) {
					ch.counter.TakeLast() // as a session takes each run's sample
					dev.regs.Write(ctrl, 0)
					if left--; left == 0 {
						s.Stop()
						return
					}
					s.After(0, "start", start)
				})
				b.ReportAllocs()
				b.ResetTimer()
				start()
				if err := s.Run(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if left != 0 {
					b.Fatalf("%d runs left", left)
				}
			})
		}
	}
}
