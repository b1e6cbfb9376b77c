package pcie

import (
	"bytes"
	"strings"
	"testing"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

func TestLinkRates(t *testing.T) {
	g2 := DefaultGen2x2()
	if got := g2.BytesPerNs(); got != 1.0 {
		t.Fatalf("Gen2 x2 = %v B/ns, want 1.0", got)
	}
	g3 := Gen3x4()
	if got := g3.BytesPerNs(); got < 3.9 || got > 4.0 {
		t.Fatalf("Gen3 x4 = %v B/ns, want ~3.94", got)
	}
}

func TestLinkSerializationAndOrdering(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Gen: 2, Lanes: 2, MPS: 128, MRRS: 512, Prop: sim.Ns(200)})
	var arrivals []sim.Time
	var order []int
	// Two TLPs queued back-to-back: the second serializes after the first.
	l.Down(104, l.Label("a"), func() { arrivals = append(arrivals, s.Now()); order = append(order, 1) })
	l.Down(104, l.Label("b"), func() { arrivals = append(arrivals, s.Now()); order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 104+24 = 128 wire bytes at 1 B/ns => 128ns serialization each.
	want1 := sim.Time(sim.Ns(128 + 200))
	want2 := sim.Time(sim.Ns(256 + 200))
	if arrivals[0] != want1 || arrivals[1] != want2 {
		t.Fatalf("arrivals = %v, want [%v %v]", arrivals, want1, want2)
	}
	if order[0] != 1 || order[1] != 2 {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	s := sim.New()
	l := NewLink(s, DefaultGen2x2())
	var down, up sim.Time
	l.Down(1000, l.Label("d"), func() { down = s.Now() })
	l.Up(0, l.Label("u"), func() { up = s.Now() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The upstream TLP must not queue behind the big downstream one.
	if up >= down {
		t.Fatalf("up arrived at %v, down at %v; directions should be independent", up, down)
	}
}

// CapabilityRef locates one capability in config space.
type CapabilityRef struct {
	ID     byte
	Offset int
}

// Capabilities walks the capability chain as a host's config-space
// scan does, returning (id, offset) pairs.
func (c *ConfigSpace) Capabilities() []CapabilityRef {
	var out []CapabilityRef
	if c.u16(CfgStatus)&StatusCapList == 0 {
		return out
	}
	seen := map[int]bool{}
	off := int(c.raw[CfgCapPtr])
	for off != 0 && !seen[off] {
		seen[off] = true
		out = append(out, CapabilityRef{ID: c.raw[off], Offset: off})
		off = int(c.raw[off+1])
	}
	return out
}

func TestConfigSpaceIDsAndCaps(t *testing.T) {
	c := NewConfigSpace(0x1af4, 0x1041, 0x020000, 0x1af4, 0x0001)
	if got := c.Read32(CfgVendorID); got != 0x10411af4 {
		t.Fatalf("ID dword = %#x", got)
	}
	off1 := c.AddCapability(CapIDMSIX, []byte{0x03, 0x00, 0, 0, 0, 0, 0, 0, 0, 0})
	off2 := c.AddCapability(CapIDVendor, []byte{16, 1, 4, 0, 0, 0})
	caps := c.Capabilities()
	if len(caps) != 2 {
		t.Fatalf("caps = %+v", caps)
	}
	if caps[0].ID != CapIDMSIX || caps[0].Offset != off1 {
		t.Fatalf("cap0 = %+v", caps[0])
	}
	if caps[1].ID != CapIDVendor || caps[1].Offset != off2 {
		t.Fatalf("cap1 = %+v", caps[1])
	}
	if c.Read32(CfgStatus&^3)>>16&StatusCapList == 0 {
		t.Fatal("capability-list status bit not set")
	}
}

func TestConfigBARSizingProtocol(t *testing.T) {
	c := NewConfigSpace(0x10ee, 0x7024, 0x058000, 0x10ee, 0x0007)
	c.SetBARSize(0, 1<<16)
	c.SetBARSize(1, 1<<20)
	// Probe BAR0.
	c.Write32(CfgBAR0, 0xffffffff)
	if got := c.Read32(CfgBAR0); got != ^uint32(1<<16-1)&0xfffffff0 {
		t.Fatalf("BAR0 size mask = %#x", got)
	}
	// Assign an address; low bits must be cleared.
	c.Write32(CfgBAR0, 0xe0001234)
	if got := c.Read32(CfgBAR0) &^ 0xf; got != 0xe0000000 {
		t.Fatalf("BAR0 addr = %#x", got)
	}
	// Unimplemented BAR reads zero, ignores writes.
	c.Write32(CfgBAR0+8, 0xffffffff)
	if got := c.Read32(CfgBAR0 + 8); got != 0 {
		t.Fatalf("BAR2 = %#x, want 0", got)
	}
}

func TestConfigCommandRegister(t *testing.T) {
	c := NewConfigSpace(1, 2, 0, 0, 0)
	if c.Read32(CfgCommand)&CmdMemEnable != 0 || c.BusMaster() {
		t.Fatal("fresh device should have decoding off")
	}
	c.Write32(CfgCommand, CmdMemEnable|CmdBusMaster)
	if c.Read32(CfgCommand)&CmdMemEnable == 0 || !c.BusMaster() {
		t.Fatal("command write did not take")
	}
	// Vendor ID must be read-only.
	c.Write32(CfgVendorID, 0xdead)
	if got := c.Read32(CfgVendorID); uint16(got) != 1 {
		t.Fatalf("vendor overwritten: %#x", got)
	}
}

// A TLP's arrival event carries its label whether or not a tracer was
// installed when the TLP was queued.
func TestLinkArrivalNamedBeforeTracer(t *testing.T) {
	s := sim.New()
	l := NewLink(s, DefaultGen2x2())
	l.Down(64, l.mwr, func() {})
	tr := &sim.RecordingTracer{}
	s.SetTracer(tr)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Name != "pcie:down:MWr" {
		t.Fatalf("records = %v, want one pcie:down:MWr arrival", tr.Records)
	}
}

// testbed wires one endpoint with a small register BAR and 64KB BRAM-ish
// scratch behind BAR1.
type testDev struct {
	regs map[uint64]uint64
}

func newTestbed(t *testing.T) (*sim.Sim, *RootComplex, *Endpoint, *testDev) {
	t.Helper()
	s := sim.New()
	m := mem.New(1 << 20)
	rc := NewRootComplex(s, m, DefaultCosts())
	cfg := NewConfigSpace(0x10ee, 0x7024, 0x058000, 0x10ee, 0x0007)
	cfg.SetBARSize(0, 1<<12)
	ep := rc.Attach("dut", cfg, DefaultGen2x2())
	dev := &testDev{regs: map[uint64]uint64{}}
	ep.SetBarHandlers(0, BarHandlers{
		Read:  func(off uint64, size int) uint64 { return dev.regs[off] },
		Write: func(off uint64, size int, v uint64) { dev.regs[off] = v },
	})
	ep.ConfigureMSIX(4)
	return s, rc, ep, dev
}

func TestEnumerateAndMMIO(t *testing.T) {
	s, rc, ep, dev := newTestbed(t)
	var info *DeviceInfo
	s.Go("host", func(p *sim.Proc) {
		infos := rc.Enumerate(p)
		if len(infos) != 1 {
			t.Errorf("enumerated %d devices", len(infos))
			return
		}
		info = infos[0]
		if info.VendorID != 0x10ee || info.DeviceID != 0x7024 {
			t.Errorf("IDs = %04x:%04x", info.VendorID, info.DeviceID)
		}
		if info.BAR[0] == 0 {
			t.Error("BAR0 unassigned")
		}
		rc.MMIOWrite(p, info.BAR[0]+0x10, 4, 0xabcd)
		// A posted write then a read: the read must observe the write
		// (same direction, FIFO ordering).
		if got := rc.MMIORead(p, info.BAR[0]+0x10, 4); got != 0xabcd {
			t.Errorf("readback = %#x", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ep.Config().BusMaster() {
		t.Fatal("enumeration did not enable bus mastering")
	}
	if dev.regs[0x10] != 0xabcd {
		t.Fatal("device register not written")
	}
}

func TestMMIOReadLatency(t *testing.T) {
	s, rc, _, dev := newTestbed(t)
	dev.regs[0] = 7
	var start, end sim.Time
	s.Go("host", func(p *sim.Proc) {
		info := rc.Enumerate(p)[0]
		start = p.Now()
		_ = rc.MMIORead(p, info.BAR[0], 4)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rtt := end.Sub(start)
	// MRd down: 24B ser (24ns) + 200ns prop; 32ns reg; CplD up: 28B ser + 200ns.
	want := sim.Ns(24 + 200 + 32 + 28 + 200)
	if rtt != want {
		t.Fatalf("MMIO read RTT = %v, want %v", rtt, want)
	}
}

func TestMMIOWriteIsPosted(t *testing.T) {
	s, rc, _, _ := newTestbed(t)
	var cpuTime sim.Duration
	s.Go("host", func(p *sim.Proc) {
		info := rc.Enumerate(p)[0]
		t0 := p.Now()
		rc.MMIOWrite(p, info.BAR[0], 4, 1)
		cpuTime = p.Now().Sub(t0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if cpuTime != DefaultCosts().MMIOWriteCPU {
		t.Fatalf("posted write cost = %v, want %v", cpuTime, DefaultCosts().MMIOWriteCPU)
	}
}

// dmaRead fetches n bytes from host memory at a into a fresh buffer,
// blocking device process p for the bus round trips.
func dmaRead(p *sim.Proc, ep *Endpoint, a mem.Addr, n int) []byte {
	out := make([]byte, n)
	rd := ep.BeginDMARead(a, out)
	p.SleepSteps(func() sim.Duration {
		for !rd.Await(p) {
			if !rd.Advance() {
				return 0
			}
		}
		return sim.Blocked
	})
	return out
}

// dmaWrite posts data to host memory at a, blocking device process p
// while the link serializes the writes.
func dmaWrite(p *sim.Proc, ep *Endpoint, a mem.Addr, data []byte) {
	if d := ep.PostDMAWrite(a, data).Sub(p.Now()); d > 0 {
		p.Sleep(d)
	}
}

func TestDMAReadWriteRoundTrip(t *testing.T) {
	s, rc, ep, _ := newTestbed(t)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	rc.Mem.Write(0x4000, payload)
	var got []byte
	s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(100), "dev", func(p *sim.Proc) {
		got = dmaRead(p, ep, 0x4000, len(payload))
		dmaWrite(p, ep, 0x8000, got)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("DMA read returned wrong data")
	}
	if !bytes.Equal(rc.Mem.Read(0x8000, len(payload)), payload) {
		t.Fatal("DMA write corrupted data")
	}
}

// TestDMAReadDeadlockNamesTrigger: a device process whose read
// completion never comes, waiting through a SleepSteps step, is named
// in Run's deadlock report with the read's trigger.
func TestDMAReadDeadlockNamesTrigger(t *testing.T) {
	s, rc, ep, _ := newTestbed(t)
	s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(100), "dev", func(p *sim.Proc) {
		rd := ep.BeginDMARead(0, make([]byte, 4))
		rd.onMem = func() {} // the host never answers the request
		p.SleepSteps(func() sim.Duration {
			if rd.Await(p) {
				return sim.Blocked
			}
			return 0
		})
	})
	err := s.Run()
	want := "dev: trigger:" + ep.Name() + ":dmard"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error %v, want a deadlock naming %q", err, want)
	}
}

func TestDMAReadSplitsRequests(t *testing.T) {
	s, rc, ep, _ := newTestbed(t)
	n := 1024 // MRRS=512 -> 2 MRd; MPS=128 -> 8 CplD
	rc.Mem.Fill(0, n, 0x55)
	s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(100), "dev", func(p *sim.Proc) {
		dmaRead(p, ep, 0, n)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := ep.Stats().UpTLPs[TLPMemRead]; got != 2 {
		t.Fatalf("MRd count = %d, want 2", got)
	}
	if got := ep.Stats().DownTLPs[TLPCompletion]; got != 8 {
		t.Fatalf("CplD count = %d, want 8", got)
	}
	if got := ep.Stats().DownBytes; got < 1024 {
		t.Fatalf("completion bytes = %d", got)
	}
}

func TestDMAWithoutBusMasterPanics(t *testing.T) {
	s, _, ep, _ := newTestbed(t)
	panicked := false
	s.Go("dev", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		dmaRead(p, ep, 0, 4)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("expected panic without bus mastering")
	}
}

func TestMSIXDelivery(t *testing.T) {
	s, rc, ep, _ := newTestbed(t)
	var gotVec = -1
	var at sim.Time
	rc.SetIRQSink(func(e *Endpoint, v int) {
		gotVec = v
		at = s.Now()
	})
	var raised sim.Time
	s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(50), "dev", func(p *sim.Proc) {
		raised = p.Now()
		ep.RaiseMSIX(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotVec != 2 {
		t.Fatalf("vector = %d, want 2", gotVec)
	}
	// 28B ser + 200ns prop + 300ns APIC.
	want := raised.Add(sim.Ns(28 + 200 + 300))
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	if ep.Stats().Interrupts != 1 {
		t.Fatalf("interrupt count = %d", ep.Stats().Interrupts)
	}
}

// With no tracer and no span sink, the flight recorder still holds one
// msix span per delivered interrupt, from the raise to APIC dispatch.
// A spurious duplicate overlaps the real raise of the same vector and
// keeps its own interval, ending one message serialization later.
func TestMSIXFlightSpans(t *testing.T) {
	s, rc, ep, _ := newTestbed(t)
	plan, err := faults.Parse("irqspurious:every=2")
	if err != nil {
		t.Fatal(err)
	}
	rc.SetFaults(faults.NewInjector(plan, sim.NewRNG(1).Fork("faults"), telemetry.NewRegistry()))
	fr := telemetry.NewFlightRecorder(s.SpanKinds(), 1024, 1, telemetry.NewRegistry())
	s.SetFlightSink(fr)
	var dispatched []sim.Time
	rc.SetIRQSink(func(e *Endpoint, v int) { dispatched = append(dispatched, s.Now()) })
	type interval struct{ start, end sim.Time }
	var want []interval
	s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
	s.GoAfter(sim.Us(50), "dev", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			// 28B ser + 200ns prop + 300ns APIC; the spurious copy
			// (every second raise) goes first, the real one queues
			// behind it on the link.
			now := p.Now()
			want = append(want, interval{now, now.Add(sim.Ns(28 + 200 + 300))})
			if i%2 == 1 {
				want = append(want, interval{now, now.Add(sim.Ns(2*28 + 200 + 300))})
			}
			ep.RaiseMSIX(1)
			p.Sleep(sim.Us(2))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fr.Snapshot("end", s.Now())
	var got []interval
	for _, sp := range fr.Dumps()[0].Spans {
		if sp.Layer == telemetry.LayerPCIe && sp.Name == "msix" {
			got = append(got, interval{sp.Start, sp.End})
		}
	}
	if len(dispatched) != len(want) || len(got) != len(want) {
		t.Fatalf("%d dispatches, %d msix spans; want %d of each", len(dispatched), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] || got[i].end != dispatched[i] {
			t.Fatalf("msix span %d = %v, dispatched at %v; want %v", i, got[i], dispatched[i], want[i])
		}
	}
}

func TestDMABandwidthScalesWithLink(t *testing.T) {
	run := func(link LinkConfig) sim.Duration {
		s := sim.New()
		m := mem.New(1 << 20)
		rc := NewRootComplex(s, m, DefaultCosts())
		cfg := NewConfigSpace(1, 2, 0, 0, 0)
		cfg.SetBARSize(0, 4096)
		ep := rc.Attach("d", cfg, link)
		ep.SetBarHandlers(0, BarHandlers{})
		var dur sim.Duration
		s.Go("host", func(p *sim.Proc) { rc.Enumerate(p) })
		s.GoAfter(sim.Us(10), "dev", func(p *sim.Proc) {
			t0 := p.Now()
			dmaRead(p, ep, 0, 64<<10)
			dur = p.Now().Sub(t0)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return dur
	}
	slow := run(DefaultGen2x2())
	fast := run(Gen3x4())
	// Sequential reads are latency-bound, so the speedup is less than the
	// raw 4x bandwidth ratio, but a faster link must still win clearly.
	if fast*5 >= slow*3 {
		t.Fatalf("Gen3x4 (%v) should be well under 60%% of Gen2x2 (%v)", fast, slow)
	}
}

func TestStatsCounting(t *testing.T) {
	st := NewStats()
	st.countDown(TLPMemWrite, 64)
	st.countUp(TLPCompletion, 128)
	if st.DownTLPs[TLPMemWrite] != 1 || st.DownBytes != 64 {
		t.Fatalf("down stats wrong: %+v", st)
	}
	if st.UpTLPs[TLPCompletion] != 1 || st.UpBytes != 128 {
		t.Fatalf("up stats wrong: %+v", st)
	}
}

func TestTLPKindString(t *testing.T) {
	names := map[TLPKind]string{
		TLPMemRead: "MRd", TLPMemWrite: "MWr", TLPCompletion: "CplD",
		TLPConfigRead: "CfgRd", TLPConfigWrite: "CfgWr", TLPMessage: "Msg",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
