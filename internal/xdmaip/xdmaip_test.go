package xdmaip

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
)

func TestDescriptorRoundTrip(t *testing.T) {
	m := mem.New(4096)
	d := Descriptor{
		Control: DescStop | DescCompleted | DescEOP,
		Len:     1024,
		Src:     0x1000,
		Dst:     0x2000,
		Next:    0x3000,
	}
	d.Encode(m, 64)
	got, err := DecodeDescriptor(m.Read(64, DescSize))
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatalf("round trip: got %+v, want %+v", got, d)
	}
}

func TestDescriptorRoundTripProperty(t *testing.T) {
	m := mem.New(4096)
	f := func(ctl uint8, ln uint16, src, dst, next uint32) bool {
		d := Descriptor{
			Control: uint32(ctl) & (DescStop | DescCompleted | DescEOP),
			Len:     uint32(ln),
			Src:     uint64(src),
			Dst:     uint64(dst),
			Next:    uint64(next),
		}
		d.Encode(m, 0)
		got, err := DecodeDescriptor(m.Read(0, DescSize))
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeDescriptorErrors(t *testing.T) {
	if _, err := DecodeDescriptor(make([]byte, 31)); err == nil {
		t.Fatal("short descriptor accepted")
	}
	if _, err := DecodeDescriptor(make([]byte, 32)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// newVendorTestbed brings up a vendor XDMA device behind a root complex.
func newVendorTestbed(t testing.TB) (*sim.Sim, *pcie.RootComplex, *VendorDevice, *pcie.DeviceInfo) {
	return newVendorBed(t, DefaultConfig(), nil)
}

// newVendorBed is newVendorTestbed for a device configured by cfg;
// setup, when not nil, runs on the device before its engines start.
func newVendorBed(t testing.TB, cfg Config, setup func(d *VendorDevice)) (*sim.Sim, *pcie.RootComplex, *VendorDevice, *pcie.DeviceInfo) {
	t.Helper()
	s := sim.New()
	hostMem := mem.New(1 << 20)
	rc := pcie.NewRootComplex(s, hostMem, pcie.DefaultCosts())
	dev := NewVendor(s, rc, "xdma0", cfg)
	if setup != nil {
		setup(dev)
	}
	var info *pcie.DeviceInfo
	s.Go("enum", func(p *sim.Proc) {
		infos := rc.Enumerate(p)
		if len(infos) != 1 {
			t.Errorf("enumerated %d devices", len(infos))
			return
		}
		info = infos[0]
	})
	s.RunUntil(sim.Time(sim.Ms(1)))
	if info == nil {
		t.Fatal("enumeration did not complete")
	}
	if info.VendorID != XilinxVendorID || info.DeviceID != XDMADeviceID {
		t.Fatalf("IDs = %04x:%04x", info.VendorID, info.DeviceID)
	}
	return s, rc, dev, info
}

// TestIdleEnginesDeadlockNamesKick: with nothing left to run, Run's
// deadlock report names both idle engines as waiting on their kick.
func TestIdleEnginesDeadlockNamesKick(t *testing.T) {
	s, _, _, _ := newVendorTestbed(t)
	err := s.Run()
	want := "[xdma0.c2h0: wait:c2h0.kick xdma0.h2c0: wait:h2c0.kick]"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error %v, want a deadlock naming %s", err, want)
	}
}

func TestVendorH2CAndC2HTransfer(t *testing.T) {
	s, rc, dev, info := newVendorTestbed(t)
	bar1 := info.BAR[1]
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	const hostBuf, hostDesc, hostBack = 0x10000, 0x20000, 0x30000
	rc.Mem.Write(hostBuf, payload)

	irqs := make(map[int]int)
	irqSeen := sim.NewCond(s, "irq")
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) {
		irqs[vec]++
		irqSeen.Broadcast()
	})

	var done bool
	s.Go("driver", func(p *sim.Proc) {
		// Enable channel interrupts.
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQChanEnable, 4, 0x3)

		// H2C: host payload -> BRAM offset 0x100.
		Descriptor{Control: DescStop | DescCompleted | DescEOP, Len: uint32(len(payload)), Src: hostBuf, Dst: 0x100}.Encode(rc.Mem, hostDesc)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescLo, 4, hostDesc)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescHi, 4, 0)
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
		for irqs[VecH2C] == 0 {
			irqSeen.Wait(p)
		}
		st := rc.MMIORead(p, bar1+H2CChannelBase+RegChanStatus+4, 4)
		if st&StatusDescComplete == 0 {
			t.Errorf("H2C status = %#x, want desc_complete", st)
		}
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, 0) // stop

		// C2H: BRAM offset 0x100 -> host.
		Descriptor{Control: DescStop | DescCompleted | DescEOP, Len: uint32(len(payload)), Src: 0x100, Dst: hostBack}.Encode(rc.Mem, hostDesc)
		rc.MMIOWrite(p, bar1+C2HSGDMABase+RegDescLo, 4, hostDesc)
		rc.MMIOWrite(p, bar1+C2HSGDMABase+RegDescHi, 4, 0)
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
		for irqs[VecC2H] == 0 {
			irqSeen.Wait(p)
		}
		rc.MMIOWrite(p, bar1+C2HChannelBase+RegChanControl, 4, 0)
		done = true
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("driver did not finish")
	}
	if !bytes.Equal(dev.BRAM().Read(0x100, len(payload)), payload) {
		t.Fatal("H2C data mismatch in BRAM")
	}
	if !bytes.Equal(rc.Mem.Read(hostBack, len(payload)), payload) {
		t.Fatal("C2H data mismatch in host memory")
	}
	if irqs[VecH2C] != 1 || irqs[VecC2H] != 1 {
		t.Fatalf("irqs = %v", irqs)
	}
	// Each engine recorded exactly one hardware-latency sample, 8ns-quantized.
	for _, pc := range []*fpga.PerfCounter{dev.H2CCounter(), dev.C2HCounter()} {
		ss := pc.Samples()
		if len(ss) != 1 {
			t.Fatalf("%s samples = %v", pc.Name(), ss)
		}
		if ss[0] <= 0 || ss[0]%sim.Ns(8) != 0 {
			t.Fatalf("%s sample %v not quantized/positive", pc.Name(), ss[0])
		}
	}
}

func TestVendorDescriptorChain(t *testing.T) {
	s, rc, dev, info := newVendorTestbed(t)
	bar1 := info.BAR[1]
	a := []byte("first-chunk-")
	b := []byte("second-chunk")
	rc.Mem.Write(0x1000, a)
	rc.Mem.Write(0x2000, b)
	// Two chained descriptors placing the chunks adjacently in BRAM.
	Descriptor{Control: 0, Len: uint32(len(a)), Src: 0x1000, Dst: 0, Next: 0x5020}.Encode(rc.Mem, 0x5000)
	Descriptor{Control: DescStop | DescEOP, Len: uint32(len(b)), Src: 0x2000, Dst: uint64(len(a))}.Encode(rc.Mem, 0x5020)

	gotIRQ := false
	irqSeen := sim.NewCond(s, "irq")
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) {
		if vec == VecH2C {
			gotIRQ = true
			irqSeen.Broadcast()
		}
	})
	s.Go("driver", func(p *sim.Proc) {
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQChanEnable, 4, 0x1)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescLo, 4, 0x5000)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescHi, 4, 0)
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
		for !gotIRQ {
			irqSeen.Wait(p)
		}
		if n := rc.MMIORead(p, bar1+H2CChannelBase+RegChanCompleted, 4); n != 2 {
			t.Errorf("completed count = %d, want 2", n)
		}
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, 0)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, a...), b...)
	if !bytes.Equal(dev.BRAM().Read(0, len(want)), want) {
		t.Fatalf("chained transfer wrote %q", dev.BRAM().Read(0, len(want)))
	}
}

func TestVendorIRQDisabled(t *testing.T) {
	s, rc, _, info := newVendorTestbed(t)
	bar1 := info.BAR[1]
	rc.Mem.Write(0x1000, []byte{1, 2, 3, 4})
	fired := 0
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) { fired++ })
	s.Go("driver", func(p *sim.Proc) {
		// Channel IRQ enable left clear: no interrupt expected.
		Descriptor{Control: DescStop, Len: 4, Src: 0x1000, Dst: 0}.Encode(rc.Mem, 0x5000)
		rc.MMIOWrite(p, bar1+H2CSGDMABase+RegDescLo, 4, 0x5000)
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, CtrlRun|CtrlIEDescComplete)
		p.Sleep(sim.Us(50))
		st := rc.MMIORead(p, bar1+H2CChannelBase+RegChanStatus+4, 4)
		if st&StatusDescComplete == 0 {
			t.Errorf("engine did not complete: status %#x", st)
		}
		// Status read was read-clear: a second read shows it cleared.
		st2 := rc.MMIORead(p, bar1+H2CChannelBase+RegChanStatus+4, 4)
		if st2&StatusDescComplete != 0 {
			t.Errorf("status_rc did not clear: %#x", st2)
		}
		rc.MMIOWrite(p, bar1+H2CChannelBase+RegChanControl, 4, 0)
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("unexpected interrupts: %d", fired)
	}
}

func TestVendorUserIRQ(t *testing.T) {
	s, rc, dev, info := newVendorTestbed(t)
	bar1 := info.BAR[1]
	var vecs []int
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) { vecs = append(vecs, vec) })
	s.Go("driver", func(p *sim.Proc) {
		dev.RaiseUserIRQ(0) // disabled: dropped
		rc.MMIOWrite(p, bar1+IRQBlockBase+RegIRQUserEnable, 4, 1)
		p.Sleep(sim.Us(1))
		dev.RaiseUserIRQ(0)
		p.Sleep(sim.Us(10))
		s.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 1 || vecs[0] != VecUserBase {
		t.Fatalf("vecs = %v, want [%d]", vecs, VecUserBase)
	}
}

func TestPortHostReadWrite(t *testing.T) {
	s := sim.New()
	hostMem := mem.New(1 << 16)
	rc := pcie.NewRootComplex(s, hostMem, pcie.DefaultCosts())
	cs := pcie.NewConfigSpace(XilinxVendorID, XDMADeviceID, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := rc.Attach("dut", cs, pcie.DefaultGen2x2())
	ep.SetBarHandlers(0, pcie.BarHandlers{})
	port := NewPort(s, ep, fpga.Default125MHz())
	hostMem.Write(0x100, []byte("hello-port"))
	var got []byte
	s.Go("enum", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(50), "fabric", func(p *sim.Proc) {
		got = port.HostRead(p, 0x100, 10)
		port.HostWrite(p, 0x200, got)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello-port" {
		t.Fatalf("HostRead got %q", got)
	}
	if string(hostMem.Read(0x200, 10)) != "hello-port" {
		t.Fatal("HostWrite data mismatch")
	}
}
