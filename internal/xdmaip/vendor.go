package xdmaip

import (
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
}

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

// Clock returns the fabric clock.
func (d *VendorDevice) Clock() *fpga.Clock { return d.clk }

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
	d.sim.Go(d.ep.Name()+"."+name, ch.run)
	return ch
}

func (ch *channel) ctrl() uint32   { return ch.dev.regs.Get(ch.base + RegChanControl) }
func (ch *channel) status() uint32 { return ch.dev.regs.Get(ch.base + RegChanStatus) }
func (ch *channel) setStatus(v uint32) {
	ch.dev.regs.Set(ch.base+RegChanStatus, v)
}

// run is the engine finite-state machine: wait for a rising Run edge,
// walk the descriptor list, move data, then report and interrupt.
func (ch *channel) run(p *sim.Proc) {
	d := ch.dev
	for {
		for ch.ctrl()&CtrlRun != 0 { // require Run low first (edge semantics)
			ch.kick.Wait(p)
		}
		for ch.ctrl()&CtrlRun == 0 {
			ch.kick.Wait(p)
		}
		// Counter and span bracket the same engine-run interval so
		// span-derived hardware attribution matches the RTTSample math.
		ch.counter.Begin(p.Now())
		sp := d.sim.BeginSpan(ch.span)
		ch.runs.Inc()
		ch.setStatus(StatusBusy)
		p.Sleep(d.clk.Cycles(engineStartCycles))
		// Fault hook: an injected engine error aborts the run before any
		// descriptor is fetched, exactly like a descriptor decode error.
		failed := d.ep.Faults().Fire(faults.EngineErr)
		if !failed {
			descAddr := mem.Addr(uint64(d.regs.Get(ch.sgdma+RegDescLo)) | uint64(d.regs.Get(ch.sgdma+RegDescHi))<<32)
			completed := uint32(0)
			for {
				d.movers.move(p, d.clk.Cycles(descFetchSetupCycles), descAddr, ch.descBuf[:], false)
				desc, err := DecodeDescriptor(ch.descBuf[:])
				if err != nil {
					if d.ep.Faults() != nil {
						// A fault (e.g. a corrupted DMA read) mangled the
						// descriptor: halt with the error status instead
						// of crashing — the driver resets the channel.
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
			// Poll-mode writeback: DMA-write the run's outcome to the
			// host slot the driver programmed, through the same posted
			// write path data takes. No interrupt is involved — with the
			// IE bits clear and the IRQ block disabled the conditional
			// below stays false.
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
	}
}
