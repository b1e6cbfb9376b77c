package xdmadrv_test

import (
	"bytes"
	"slices"
	"testing"

	"fpgavirtio/internal/drivers/xdmadrv"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/xdmaip"
)

func testbed(t *testing.T, fn func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver)) {
	t.Helper()
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	h := hostos.New(s, 8<<20, cfg, 21)
	dev := xdmaip.NewVendor(s, h.RC, "xdma0", xdmaip.DefaultConfig())
	failed := false
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		if len(infos) != 1 {
			t.Errorf("enumerated %d devices", len(infos))
			failed = true
			return
		}
		drv, err := xdmadrv.Probe(p, h, infos[0], "xdma0", xdmadrv.Options{})
		if err != nil {
			t.Error(err)
			failed = true
			return
		}
		fn(p, h, dev, drv)
	})
	if err := s.Run(); err != nil && !failed {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	testbed(t, func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver) {
		h2c, err := h.Open("/dev/xdma0_h2c_0")
		if err != nil {
			t.Error(err)
			return
		}
		c2h, err := h.Open("/dev/xdma0_c2h_0")
		if err != nil {
			t.Error(err)
			return
		}
		payload := make([]byte, 1024)
		sim.NewRNG(5).Bytes(payload)
		if n, err := h2c.Write(p, payload); err != nil || n != len(payload) {
			t.Errorf("write: n=%d err=%v", n, err)
			return
		}
		// Data must be in card BRAM now.
		if !bytes.Equal(dev.BRAM().Read(0, len(payload)), payload) {
			t.Error("BRAM does not hold written data")
		}
		back := make([]byte, len(payload))
		if n, err := c2h.Read(p, back); err != nil || n != len(back) {
			t.Errorf("read: n=%d err=%v", n, err)
			return
		}
		if !bytes.Equal(back, payload) {
			t.Error("round-trip data mismatch")
		}
		if drv.H2CStats() != 1 || drv.C2HStats() != 1 {
			t.Errorf("transfer counts: h2c=%d c2h=%d", drv.H2CStats(), drv.C2HStats())
		}
	})
}

func TestManyRoundTripsAndCounters(t *testing.T) {
	testbed(t, func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver) {
		h2c, _ := h.Open("/dev/xdma0_h2c_0")
		c2h, _ := h.Open("/dev/xdma0_c2h_0")
		const n = 10
		buf := make([]byte, 256)
		for i := 0; i < n; i++ {
			buf[0] = byte(i)
			if _, err := h2c.Write(p, buf); err != nil {
				t.Error(err)
				return
			}
			out := make([]byte, 256)
			if _, err := c2h.Read(p, out); err != nil {
				t.Error(err)
				return
			}
			if out[0] != byte(i) {
				t.Errorf("iteration %d data mismatch", i)
				return
			}
		}
		if got := len(dev.H2CCounter().Samples()); got != n {
			t.Errorf("H2C hw samples = %d, want %d", got, n)
		}
		if got := len(dev.C2HCounter().Samples()); got != n {
			t.Errorf("C2H hw samples = %d, want %d", got, n)
		}
		// Two interrupts (H2C + C2H) per round trip — the cost the paper
		// notes the XDMA path pays that VirtIO avoids.
		if irqs := dev.EP().Stats().Interrupts; irqs != 2*n {
			t.Errorf("interrupts = %d, want %d", irqs, 2*n)
		}
	})
}

func TestWrongDirectionRejected(t *testing.T) {
	testbed(t, func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver) {
		h2c, _ := h.Open("/dev/xdma0_h2c_0")
		c2h, _ := h.Open("/dev/xdma0_c2h_0")
		if _, err := h2c.Read(p, make([]byte, 8)); err == nil {
			t.Error("read on H2C node succeeded")
		}
		if _, err := c2h.Write(p, make([]byte, 8)); err == nil {
			t.Error("write on C2H node succeeded")
		}
	})
}

func TestOversizeTransferRejected(t *testing.T) {
	testbed(t, func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver) {
		h2c, _ := h.Open("/dev/xdma0_h2c_0")
		if _, err := h2c.Write(p, make([]byte, xdmadrv.MaxTransfer+1)); err == nil {
			t.Error("oversize write succeeded")
		}
	})
}

func TestProbeRejectsWrongDevice(t *testing.T) {
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	h := hostos.New(s, 1<<20, cfg, 1)
	// No device attached at all: enumeration returns nothing to probe.
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		if infos := h.RC.Enumerate(p); len(infos) != 0 {
			t.Errorf("unexpected devices: %d", len(infos))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyIsDeterministicWhenQuiet(t *testing.T) {
	measure := func() sim.Duration {
		var rtt sim.Duration
		testbed(t, func(p *sim.Proc, h *hostos.Host, dev *xdmaip.VendorDevice, drv *xdmadrv.Driver) {
			h2c, _ := h.Open("/dev/xdma0_h2c_0")
			c2h, _ := h.Open("/dev/xdma0_c2h_0")
			buf := make([]byte, 128)
			t0 := p.Now()
			h2c.Write(p, buf)
			out := make([]byte, 128)
			c2h.Read(p, out)
			rtt = p.Now().Sub(t0)
		})
		return rtt
	}
	a, b := measure(), measure()
	if a != b {
		t.Fatalf("quiet-config RTT not deterministic: %v vs %v", a, b)
	}
	if a < sim.Us(5) || a > sim.Us(60) {
		t.Fatalf("RTT %v outside plausible envelope", a)
	}
}

// isrOutcome is what a run exposes to TestIRQHandlersMatchBlocking:
// the executed events, the queue counters, the end clock and the data
// read back.
type isrOutcome struct {
	trace []sim.TraceRecord
	stats sim.QueueStats
	now   sim.Time
	data  []byte
}

// runISRArm runs write/read round trips of several sizes on a noisy
// host with the step-form channel ISR or, with oracle set, the
// blocking one, under the fault plan (none when empty). It fails
// unless the oracle's ISR ran and the plan's engine errors and
// poisoned completions were recovered.
func runISRArm(t *testing.T, plan string, oracle bool) isrOutcome {
	t.Helper()
	s := sim.New()
	h := hostos.New(s, 8<<20, hostos.DefaultConfig(), 3)
	reg := h.Metrics()
	if plan != "" {
		fp, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		h.RC.SetFaults(faults.NewInjector(fp, sim.NewRNG(3).Fork("faults"), reg))
	}
	xdmaip.NewVendor(s, h.RC, "xdma0", xdmaip.DefaultConfig())
	opt := xdmadrv.Options{}
	handled := func() int { return 0 }
	if oracle {
		handled = xdmadrv.UseBlockingISR(&opt)
	}
	tr := &sim.RecordingTracer{}
	s.SetTracer(tr)
	var got []byte
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		if _, err := xdmadrv.Probe(p, h, h.RC.Enumerate(p)[0], "xdma0", opt); err != nil {
			t.Error(err)
			return
		}
		h2c, _ := h.Open("/dev/xdma0_h2c_0")
		c2h, _ := h.Open("/dev/xdma0_c2h_0")
		rng := sim.NewRNG(9)
		for i := 0; i < 400; i++ {
			data := make([]byte, 64<<(i%5))
			rng.Bytes(data)
			if _, err := h2c.Write(p, data); err != nil {
				t.Error(err)
				return
			}
			back := make([]byte, len(data))
			if _, err := c2h.Read(p, back); err != nil {
				t.Error(err)
				return
			}
			got = append(got, back...)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	switch {
	case oracle && handled() < 800:
		t.Fatalf("the blocking ISR handled %d interrupts, want at least 800", handled())
	case plan != "" && reg.Counter(telemetry.MetricRecoveryXDMAResubmits).Value() == 0:
		t.Fatal("no transfer was resubmitted")
	case plan != "" && reg.Counter(telemetry.MetricPCIeCplErrors).Value() == 0:
		t.Fatal("no completion was poisoned")
	}
	return isrOutcome{trace: tr.Records, stats: s.Stats(), now: s.Now(), data: got}
}

// TestIRQHandlersMatchBlocking: the step-form channel ISR gives the
// same event trace, queue counters, end clock and data as the blocking
// ISR it replaced, on a noisy host, clean and under the default chaos
// plan (engine-error status, poisoned status reads, dropped
// interrupts).
func TestIRQHandlersMatchBlocking(t *testing.T) {
	for _, arm := range []struct{ name, plan string }{
		{"clean", ""},
		{"chaos", experiments.DefaultChaosPlan},
	} {
		t.Run(arm.name, func(t *testing.T) {
			steps, oracle := runISRArm(t, arm.plan, false), runISRArm(t, arm.plan, true)
			if !slices.Equal(steps.trace, oracle.trace) {
				n := 0
				for n < len(steps.trace) && n < len(oracle.trace) && steps.trace[n] == oracle.trace[n] {
					n++
				}
				t.Fatalf("trace (%d events) differs from the oracle's (%d events) at event %d", len(steps.trace), len(oracle.trace), n)
			}
			if steps.stats != oracle.stats {
				t.Fatalf("queue stats %+v, oracle %+v", steps.stats, oracle.stats)
			}
			if steps.now != oracle.now {
				t.Fatalf("ends at %v, oracle at %v", steps.now, oracle.now)
			}
			if !bytes.Equal(steps.data, oracle.data) {
				t.Fatal("read back other bytes than the oracle")
			}
		})
	}
}
