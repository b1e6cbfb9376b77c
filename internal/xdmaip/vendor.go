package xdmaip

import (
	"encoding/binary"
	"fmt"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Vendor/device IDs of the modeled Xilinx function.
const (
	XilinxVendorID = 0x10ee
	XDMADeviceID   = 0x7024
)

// Config parameterizes a vendor XDMA device instance.
type Config struct {
	Link        pcie.LinkConfig
	BRAMBytes   int // card memory behind the AXI-MM interface
	UserVectors int // user interrupts in addition to the two channel vectors

	// NotifyOnH2CComplete adds the user logic the stock example design
	// lacks (paper §IV-C): raise user interrupt 0 when an H2C transfer
	// finishes, so the host can wait for data-ready before issuing its
	// C2H read — the "real use case" the paper says its favourable
	// setup underestimates.
	NotifyOnH2CComplete bool
	// UserLogicDelayCycles is the fabric time the notional user logic
	// spends on the received data before raising the data-ready
	// interrupt (default 250 cycles = 2 us at 125 MHz).
	UserLogicDelayCycles int

	// engineLoop, set only by tests, runs each engine as a coroutine
	// process through the blocking loop its step machine is checked
	// against.
	engineLoop func(p *sim.Proc, ch *channel)
}

// DefaultConfig mirrors the paper's XDMA example design: the DMA engine
// writes straight into a BRAM, no user logic.
func DefaultConfig() Config {
	return Config{Link: pcie.DefaultGen2x2(), BRAMBytes: 256 << 10, UserVectors: 1}
}

// VendorDevice is the stock XDMA example design: the PCIe endpoint, the
// register file the reference driver programs, one H2C and one C2H
// SGDMA channel, and a BRAM data target.
type VendorDevice struct {
	sim  *sim.Sim
	clk  *fpga.Clock
	ep   *pcie.Endpoint
	bram *fpga.BRAM
	regs *fpga.RegFile
	cfg  Config

	movers *movers

	h2c *channel
	c2h *channel
}

// channel is one SGDMA engine (H2C or C2H).
type channel struct {
	dev     *VendorDevice
	name    string
	h2c     bool
	base    uint64 // channel register block base
	sgdma   uint64 // SGDMA register block base
	vector  int
	irqBit  uint32
	kick    *sim.Cond
	counter *fpga.PerfCounter
	// userIRQ and its event name raise the user interrupt a completed
	// H2C run schedules under NotifyOnH2CComplete, built once so the
	// per-run schedule does not allocate.
	userIRQ     func()
	userIRQName string

	span      sim.SpanKind
	runs      *telemetry.Counter
	descs     *telemetry.Counter
	dataBytes *telemetry.Counter

	// Per-engine scratch: one descriptor image, one data staging buffer
	// and one poll-writeback word image, reused across descriptors so
	// the steady-state engine run does not allocate.
	descBuf [DescSize]byte
	dataBuf []byte
	wbBuf   [WbSize]byte

	// The step machine, see run, and the state it keeps across the
	// resume points of one engine run.
	p         *sim.Proc
	step      func() sim.Duration
	pc        uint8 // where the step resumes: engIdle, engArm, ...
	sp        sim.SpanRef
	failed    bool
	descAddr  mem.Addr
	completed uint32
	desc      Descriptor // the descriptor being processed
	m         *mover     // the data move in flight
}

// The points an engine's step resumes at, once the data move in
// flight, if any, has ended.
const (
	engIdle      = iota // wait for Run low
	engArm              // wait for Run high, then start a run
	engStart            // draw the engine-error fault
	engFetch            // start the next descriptor's fetch
	engDecode           // decode it and start its data move
	engH2CAXI           // H2C: the AXI time of the data read from the host
	engH2CStore         // H2C: store the data in the BRAM
	engC2HLoad          // C2H: load the data from the BRAM, start its write to the host
	engNext             // count the descriptor, then fetch the next or end
	engWriteback        // writeback time
	engReport           // set the status, start a poll-mode writeback
	engSignal           // raise the completion and user interrupts
)

// NewVendor attaches a vendor XDMA device to the root complex and
// starts its engines. The returned device is ready for enumeration.
func NewVendor(s *sim.Sim, rc *pcie.RootComplex, name string, cfg Config) *VendorDevice {
	if cfg.Link.Lanes == 0 {
		cfg.Link = pcie.DefaultGen2x2()
	}
	if cfg.BRAMBytes == 0 {
		cfg.BRAMBytes = 256 << 10
	}
	clk := fpga.Default125MHz()
	cs := pcie.NewConfigSpace(XilinxVendorID, XDMADeviceID, 0x058000, XilinxVendorID, 0x0007)
	cs.SetBARSize(0, 4096)  // AXI-Lite user BAR (unused by the example design)
	cs.SetBARSize(1, 65536) // DMA/config register BAR
	vectors := 2 + cfg.UserVectors
	// MSI-X capability: message control holds table size - 1.
	cs.AddCapability(pcie.CapIDMSIX, []byte{byte(vectors - 1), 0x00, 1, 0, 0, 0, 1, 0x80, 0, 0})

	ep := rc.Attach(name, cs, cfg.Link)
	ep.ConfigureMSIX(vectors)

	d := &VendorDevice{
		sim:    s,
		clk:    clk,
		ep:     ep,
		bram:   fpga.NewBRAM(name+".bram", cfg.BRAMBytes),
		regs:   fpga.NewRegFile(),
		cfg:    cfg,
		movers: newMovers(ep, clk),
	}
	d.h2c = d.newChannel("h2c0", true, H2CChannelBase, H2CSGDMABase, VecH2C, 1<<0)
	d.c2h = d.newChannel("c2h0", false, C2HChannelBase, C2HSGDMABase, VecC2H, 1<<1)

	d.regs.Set(H2CChannelBase+RegChanIdentifier, idH2C)
	d.regs.Set(C2HChannelBase+RegChanIdentifier, idC2H)
	d.regs.Set(ConfigBase+RegChanIdentifier, idConfig)

	ep.SetBarHandlers(0, pcie.BarHandlers{}) // no user logic in the example design
	ep.SetBarHandlers(1, pcie.BarHandlers{
		Read:  func(off uint64, size int) uint64 { return uint64(d.regs.Read(off)) },
		Write: func(off uint64, size int, v uint64) { d.regs.Write(off, uint32(v)) },
	})
	return d
}

// EP returns the device's PCIe endpoint.
func (d *VendorDevice) EP() *pcie.Endpoint { return d.ep }

// BRAM returns the card memory the engines target.
func (d *VendorDevice) BRAM() *fpga.BRAM { return d.bram }

// H2CCounter returns the hardware performance counter of the H2C engine.
func (d *VendorDevice) H2CCounter() *fpga.PerfCounter { return d.h2c.counter }

// C2HCounter returns the hardware performance counter of the C2H engine.
func (d *VendorDevice) C2HCounter() *fpga.PerfCounter { return d.c2h.counter }

// RaiseUserIRQ asserts user interrupt i if enabled in the IRQ block.
func (d *VendorDevice) RaiseUserIRQ(i int) {
	if d.regs.Get(IRQBlockBase+RegIRQUserEnable)&(1<<uint(i)) == 0 {
		return
	}
	d.ep.RaiseMSIX(VecUserBase + i)
}

func (d *VendorDevice) newChannel(name string, h2c bool, base, sgdma uint64, vector int, irqBit uint32) *channel {
	reg := d.ep.Metrics()
	ch := &channel{
		dev:       d,
		name:      name,
		h2c:       h2c,
		base:      base,
		sgdma:     sgdma,
		vector:    vector,
		irqBit:    irqBit,
		kick:      sim.NewCond(d.sim, name+".kick"),
		counter:   fpga.NewPerfCounter(d.clk, name+".hw"),
		span:      d.sim.SpanKind(telemetry.LayerDMAEngine, "", name+".run"),
		runs:      reg.Counter(telemetry.MetricDMAEngineRuns(name)),
		descs:     reg.Counter(telemetry.MetricDMAEngineDescriptors(name)),
		dataBytes: reg.Counter(telemetry.MetricDMAEngineBytes(name)),
	}
	// A control-register write may start or stop the engine.
	d.regs.OnWrite(base+RegChanControl, func(v uint32) { ch.kick.Broadcast() })
	// Status reads through the read-clear mirror at +0x44 (PG195's
	// status_rc register the reference driver uses in its ISR).
	d.regs.OnRead(base+RegChanStatus+4, func() uint32 {
		v := d.regs.Get(base + RegChanStatus)
		d.regs.Set(base+RegChanStatus, v&StatusBusy)
		return v
	})
	ch.userIRQ = func() { d.RaiseUserIRQ(0) }
	ch.userIRQName = name + ".userirq"
	ch.step = ch.run
	// The engine is a step process whose step never returns 0: its
	// waits, sleeps and data moves all run on the wakes that end them,
	// and it holds no coroutine.
	if loop := d.cfg.engineLoop; loop != nil {
		d.sim.Go(d.ep.Name()+"."+name, func(p *sim.Proc) { loop(p, ch) })
	} else {
		ch.p = d.sim.GoSteps(0, d.ep.Name()+"."+name, ch.step)
	}
	return ch
}

func (ch *channel) ctrl() uint32 { return ch.dev.regs.Get(ch.base + RegChanControl) }
func (ch *channel) setStatus(v uint32) {
	ch.dev.regs.Set(ch.base+RegChanStatus, v)
}

// run is the engine finite-state machine as a step: wait for
// a rising Run edge, walk the descriptor list, move data, then report
// and interrupt. A data move in flight is stepped first, and the step
// resumes at ch.pc once it ends.
func (ch *channel) run() sim.Duration {
	d := ch.dev
	for {
		if m := ch.m; m != nil {
			if st := m.run(); st != 0 {
				return st
			}
			d.movers.put(m)
			ch.m = nil
		}
		switch ch.pc {
		case engIdle:
			if ch.ctrl()&CtrlRun != 0 { // require Run low first (edge semantics)
				ch.kick.Await(ch.p)
				return sim.Blocked
			}
			ch.pc = engArm
		case engArm:
			if ch.ctrl()&CtrlRun == 0 {
				ch.kick.Await(ch.p)
				return sim.Blocked
			}
			// Counter and span bracket the same engine-run interval so
			// span-derived hardware attribution matches the RTTSample math.
			ch.counter.Begin(ch.p.Now())
			ch.sp = d.sim.BeginSpan(ch.span)
			ch.runs.Inc()
			ch.setStatus(StatusBusy)
			ch.pc = engStart
			return d.clk.Cycles(engineStartCycles)
		case engStart:
			// Fault hook: an injected engine error aborts the run before any
			// descriptor is fetched, exactly like a descriptor decode error.
			ch.failed = d.ep.Faults().Fire(faults.EngineErr)
			if ch.failed {
				ch.pc = engWriteback
				continue
			}
			ch.descAddr = mem.Addr(uint64(d.regs.Get(ch.sgdma+RegDescLo)) | uint64(d.regs.Get(ch.sgdma+RegDescHi))<<32)
			ch.completed = 0
			ch.pc = engFetch
		case engFetch:
			ch.m = d.movers.get(ch.p, d.clk.Cycles(descFetchSetupCycles), ch.descAddr, ch.descBuf[:], false)
			ch.pc = engDecode
		case engDecode:
			desc, err := DecodeDescriptor(ch.descBuf[:])
			if err != nil {
				if d.ep.Faults() != nil {
					// A fault (e.g. a corrupted DMA read) mangled the
					// descriptor: halt with the error status instead
					// of crashing — the driver resets the channel.
					ch.failed = true
					ch.pc = engWriteback
					continue
				}
				panic(fmt.Sprintf("xdmaip: %s: %v", ch.name, err))
			}
			ch.desc = desc
			n := int(desc.Len)
			ch.descs.Inc()
			ch.dataBytes.Add(int64(n))
			if cap(ch.dataBuf) < n {
				ch.dataBuf = make([]byte, n)
			}
			if ch.h2c {
				ch.m = d.movers.get(ch.p, d.clk.Cycles(programCycles), mem.Addr(desc.Src), ch.data(), false)
				ch.pc = engH2CAXI
				continue
			}
			ch.pc = engC2HLoad
			return d.clk.Cycles(programCycles)
		case engH2CAXI:
			ch.pc = engH2CStore
			if axi := ch.axi(); axi != 0 {
				return axi
			}
		case engH2CStore:
			d.bram.Write(mem.Addr(ch.desc.Dst), ch.data())
			ch.pc = engNext
		case engC2HLoad:
			d.bram.ReadInto(mem.Addr(ch.desc.Src), ch.data())
			ch.m = d.movers.get(ch.p, ch.axi(), mem.Addr(ch.desc.Dst), ch.data(), true)
			ch.pc = engNext
		case engNext:
			ch.completed++
			d.regs.Set(ch.base+RegChanCompleted, ch.completed)
			if ch.desc.Control&DescStop != 0 {
				ch.pc = engWriteback
			} else {
				ch.descAddr = mem.Addr(ch.desc.Next)
				ch.pc = engFetch
			}
		case engWriteback:
			ch.pc = engReport
			return d.clk.Cycles(writebackCycles)
		case engReport:
			if ch.failed {
				ch.setStatus(StatusDescStopped | StatusDescError)
			} else {
				ch.setStatus(StatusDescStopped | StatusDescComplete)
			}
			ch.counter.End(ch.p.Now())
			ch.sp.End()
			ch.pc = engSignal
			if ch.ctrl()&CtrlPollModeWB != 0 {
				// Poll-mode writeback: DMA-write the run's outcome to the
				// host slot the driver programmed, through the same posted
				// write path data takes. No interrupt is involved — with the
				// IE bits clear and the IRQ block disabled the conditional
				// in engSignal stays false.
				wb := uint32(WbDone)
				if ch.failed {
					wb |= WbErr
				}
				binary.LittleEndian.PutUint32(ch.wbBuf[:], wb)
				wbAddr := mem.Addr(uint64(d.regs.Get(ch.base+RegPollWbLo)) | uint64(d.regs.Get(ch.base+RegPollWbHi))<<32)
				ch.m = d.movers.get(ch.p, 0, wbAddr, ch.wbBuf[:], true)
			}
		case engSignal:
			if ch.ctrl()&CtrlIEDescComplete != 0 &&
				d.regs.Get(IRQBlockBase+RegIRQChanEnable)&ch.irqBit != 0 {
				d.ep.RaiseMSIX(ch.vector)
			}
			if ch.h2c && d.cfg.NotifyOnH2CComplete && !ch.failed {
				delay := d.cfg.UserLogicDelayCycles
				if delay == 0 {
					delay = 250
				}
				d.sim.After(d.clk.Cycles(delay), ch.userIRQName, ch.userIRQ)
			}
			ch.pc = engIdle
		}
	}
}

// data is the staging buffer slice of the current descriptor's bytes.
func (ch *channel) data() []byte { return ch.dataBuf[:ch.desc.Len] }

// axi is the AXI datapath time of the current descriptor's bytes.
func (ch *channel) axi() sim.Duration {
	return ch.dev.clk.Cycles(ch.dev.clk.CyclesFor(int(ch.desc.Len), AXIWidthBytes))
}
