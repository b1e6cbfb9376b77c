package fpgavirtio

import (
	"bytes"
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/xdmadrv"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/xdmaip"
)

// XDMAConfig configures a vendor-driver session. The zero value (plus
// Config) reproduces the paper's baseline: the XDMA example design
// (BRAM behind the DMA engine, no user logic), driven through the
// reference character-device driver.
type XDMAConfig struct {
	Config
	// WaitC2HReady switches from the paper's favourable back-to-back
	// setup to the realistic one (§IV-C): user logic raises a
	// data-ready interrupt after the H2C transfer, and the application
	// waits for it before issuing the read.
	WaitC2HReady bool
}

// XDMASession is a booted vendor-path testbed.
type XDMASession struct {
	baseSession
	dev *xdmaip.VendorDevice
	drv *xdmadrv.Driver
	h2c *hostos.File
	c2h *hostos.File
	// rtSpan is the app-layer span of one timed write()+read().
	rtSpan sim.SpanKind

	waitReady bool
	readyWQ   *hostos.WaitQueue
	dataReady bool
	bramBytes int
}

// OpenXDMA boots the vendor baseline: attach the XDMA example design,
// enumerate, probe the reference driver, open both device nodes.
func OpenXDMA(cfg XDMAConfig) (*XDMASession, error) {
	xs := &XDMASession{waitReady: cfg.WaitC2HReady}
	xs.exchange = xs.roundTripInto
	attach := func(s *sim.Sim, h *hostos.Host) {
		devCfg := xdmaip.DefaultConfig()
		devCfg.Link = cfg.Link.config()
		devCfg.NotifyOnH2CComplete = cfg.WaitC2HReady
		xs.dev = xdmaip.NewVendor(s, h.RC, "xdma0", devCfg)
		xs.bramBytes = devCfg.BRAMBytes
		xs.rtSpan = s.SpanKind(telemetry.LayerApp, "", "roundtrip")
	}
	bind := func(p *sim.Proc, info *pcie.DeviceInfo) error {
		h := xs.host
		drv, err := xdmadrv.Probe(p, h, info, "xdma0", xdmadrv.Options{PollMode: cfg.PollMode})
		if err != nil {
			return err
		}
		xs.drv = drv
		if xs.h2c, err = h.Open("/dev/xdma0_h2c_0"); err != nil {
			return err
		}
		if xs.c2h, err = h.Open("/dev/xdma0_c2h_0"); err != nil {
			return err
		}
		if xs.waitReady {
			// Realistic mode: enable user interrupt 0 and register the
			// data-ready handler the stock example design lacks.
			xs.readyWQ = h.NewWaitQueue("xdma.ready")
			h.RC.MMIOWrite(p, info.BAR[1]+xdmaip.IRQBlockBase+xdmaip.RegIRQUserEnable, 4, 1)
			h.RegisterIRQSteps(info.EP, xdmaip.VecUserBase, func(irq *hostos.IRQ) sim.Duration {
				if st := h.StepWork(&irq.Work, 300*sim.Nanosecond); st != 0 {
					return st
				}
				xs.dataReady = true
				xs.readyWQ.Wake()
				return 0
			})
		}
		return nil
	}
	if err := xs.boot(cfg.Config, attach, bind); err != nil {
		return nil, err
	}
	return xs, nil
}

// RoundTrip writes data to the FPGA and reads the same number of bytes
// back, exactly the paper's XDMA test-program loop: back-to-back
// write() and read() with no device-side wait in between (the
// favourable setup of §IV-C), returning the total round-trip time.
func (xs *XDMASession) RoundTrip(data []byte) (time.Duration, error) {
	sample, err := xs.RoundTripDetailed(data)
	return sample.Total, err
}

// RoundTripDetailed is RoundTrip plus the hardware-counter
// decomposition (H2C engine time + C2H engine time).
func (xs *XDMASession) RoundTripDetailed(data []byte) (RTTSample, error) {
	return xs.detailed(data, make([]byte, len(data)))
}

// RoundTripSeries runs n timed write/read exchanges inside one
// application process, reusing a single read-back buffer — the sweep's
// hot loop, allocation-free in steady state. sample (optional)
// receives each round trip's index and decomposition as it completes.
func (xs *XDMASession) RoundTripSeries(data []byte, n int, sample func(i int, s RTTSample)) error {
	return xs.series("round trip", data, make([]byte, len(data)), n, sample)
}

// roundTripInto is the session's exchange: one timed write/read of
// data, read back into back. Under fault injection a round trip whose
// read-back does not match (a corrupted DMA read or a dropped DMA
// write) is retried end to end a bounded number of times — the
// application-level recovery the character-device interface forces,
// since the driver has no integrity information of its own.
func (xs *XDMASession) roundTripInto(p *sim.Proc, data, back []byte) (RTTSample, error) {
	sample, err := xs.roundTripAttempt(p, data, back)
	if xs.faults == nil || err == nil || err != errDataMismatch {
		if err == nil {
			xs.flight.note(sample)
		} else {
			xs.flight.noteFaults()
		}
		return sample, err
	}
	for retry := 0; retry < 2; retry++ {
		xs.drv.NoteDataRetry()
		sample, err = xs.roundTripAttempt(p, data, back)
		if err != errDataMismatch {
			if err == nil {
				xs.flight.note(sample)
			}
			return sample, err
		}
	}
	xs.flight.noteFaults()
	return sample, fmt.Errorf("fpgavirtio: xdma round-trip data mismatch persisted across retries")
}

// errDataMismatch flags a round trip whose read-back differed from the
// written data.
var errDataMismatch = fmt.Errorf("fpgavirtio: xdma round-trip data mismatch")

func (xs *XDMASession) roundTripAttempt(p *sim.Proc, data, back []byte) (RTTSample, error) {
	t0 := xs.host.ClockGettime(p)
	// The app span brackets the same instants as the RTT timer, so
	// span-derived totals agree with RTTSample.Total.
	sp := xs.s.BeginSpan(xs.rtSpan)
	if xs.waitReady {
		xs.dataReady = false
	}
	if _, err := xs.h2c.Write(p, data); err != nil {
		sp.End()
		return RTTSample{}, err
	}
	if xs.waitReady {
		// poll(2) on the user-interrupt eventfd, then re-arm.
		xs.host.SyscallEnter(p)
		for !xs.dataReady {
			xs.readyWQ.Wait(p)
		}
		xs.host.SyscallExit(p)
	}
	if _, err := xs.c2h.Read(p, back); err != nil {
		sp.End()
		return RTTSample{}, err
	}
	t1 := xs.host.ClockGettime(p)
	sp.End()
	if !bytes.Equal(back, data) {
		return RTTSample{}, errDataMismatch
	}
	total := t1.Sub(t0)
	var hw sim.Duration
	if d, ok := xs.dev.H2CCounter().TakeLast(); ok {
		hw += d
	}
	if d, ok := xs.dev.C2HCounter().TakeLast(); ok {
		hw += d
	}
	return RTTSample{
		Total:    toStd(total),
		Hardware: toStd(hw),
		Software: toStd(total - hw),
	}, nil
}
