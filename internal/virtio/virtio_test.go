package virtio

import (
	"bytes"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

func TestDeviceTypeIDs(t *testing.T) {
	if DeviceNet.PCIDeviceID() != 0x1041 {
		t.Fatalf("net PCI ID = %#x", DeviceNet.PCIDeviceID())
	}
	if DeviceBlock.PCIDeviceID() != 0x1042 || DeviceConsole.PCIDeviceID() != 0x1043 {
		t.Fatal("block/console PCI IDs wrong")
	}
	if DeviceNet.String() != "net" || DeviceType(99).String() != "device-type-99" {
		t.Fatal("DeviceType.String wrong")
	}
}

func TestFeatureHasAndString(t *testing.T) {
	f := FVersion1 | NetFMAC | NetFCsum
	if !f.Has(FVersion1) || !f.Has(NetFMAC|NetFCsum) {
		t.Fatal("Has failed")
	}
	if f.Has(NetFCtrlVQ) {
		t.Fatal("Has reported absent bit")
	}
	s := f.String()
	for _, want := range []string{"VERSION_1", "MAC", "CSUM"} {
		if !containsStr(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Feature(0).String() != "none" {
		t.Fatal("zero feature string")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPCICapRoundTrip(t *testing.T) {
	caps := []PCICap{
		{CfgType: CfgTypeCommon, Bar: 2, Offset: 0x0, Length: 0x38},
		{CfgType: CfgTypeNotify, Bar: 2, Offset: 0x1000, Length: 0x20, NotifyOffMultiplier: 4},
		{CfgType: CfgTypeDevice, Bar: 2, ID: 1, Offset: 0x2000, Length: 0x100},
	}
	for _, c := range caps {
		got, err := DecodePCICap(c.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip: got %+v, want %+v", got, c)
		}
	}
	if _, err := DecodePCICap([]byte{1, 2}); err == nil {
		t.Fatal("short cap accepted")
	}
}

func TestPCICapProperty(t *testing.T) {
	f := func(cfgType uint8, bar uint8, id uint8, off, ln uint32) bool {
		ct := byte(cfgType%4 + 1)
		c := PCICap{CfgType: ct, Bar: bar % 6, ID: id, Offset: off, Length: ln}
		if ct == CfgTypeNotify {
			c.NotifyOffMultiplier = uint32(bar)
		}
		got, err := DecodePCICap(c.Encode())
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetHdrRoundTrip(t *testing.T) {
	h := NetHdr{Flags: NetHdrFNeedsCsum, HdrLen: 14, CsumStart: 34, CsumOffset: 6, NumBuffers: 1}
	got, err := DecodeNetHdr(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
	if _, err := DecodeNetHdr(make([]byte, 11)); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestNetHdrProperty(t *testing.T) {
	f := func(fl, gso uint8, hl, gs, cs, co, nb uint16) bool {
		h := NetHdr{Flags: fl, GSOType: gso, HdrLen: hl, GSOSize: gs, CsumStart: cs, CsumOffset: co, NumBuffers: nb}
		got, err := DecodeNetHdr(h.Encode())
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlkReqHdrRoundTrip(t *testing.T) {
	h := BlkReqHdr{Type: BlkTOut, Sector: 0x123456789a}
	got, err := DecodeBlkReqHdr(h.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
	if _, err := DecodeBlkReqHdr(nil); err == nil {
		t.Fatal("nil header accepted")
	}
}

func newRing(t *testing.T, qsz int) (*mem.Memory, *DriverQueue) {
	t.Helper()
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, qsz)
	return m, NewDriverQueue(m, lay)
}

func TestAllocRingAlignment(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 1, 1<<16) // deliberately misaligned start
	lay := AllocRing(al, 256)
	if lay.Desc%16 != 0 || lay.Avail%2 != 0 || lay.Used%4 != 0 {
		t.Fatalf("misaligned layout %+v", lay)
	}
	_ = m
}

func TestAllocRingRejectsNonPowerOfTwo(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0, 1<<16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AllocRing(al, 6)
}

func TestDriverQueueAddPublishes(t *testing.T) {
	m, q := newRing(t, 8)
	head, err := q.Add([]BufSeg{
		{Addr: 0x8000, Len: 64},
		{Addr: 0x9000, Len: 128, DeviceWritten: true},
	}, "tok")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumFree() != 6 {
		t.Fatalf("numFree = %d, want 6", q.NumFree())
	}
	if q.availShadow != 1 {
		t.Fatalf("avail idx = %d", q.availShadow)
	}
	lay := q.lay
	if got := m.U16(lay.Avail + 2); got != 1 {
		t.Fatalf("published idx = %d", got)
	}
	if got := m.U16(lay.Avail + 4); got != head {
		t.Fatalf("ring slot = %d, want %d", got, head)
	}
	// Descriptor 0: out segment with NEXT flag.
	d0 := lay.Desc + mem.Addr(head)*16
	if m.U64(d0) != 0x8000 || m.U32(d0+8) != 64 || m.U16(d0+12) != DescFNext {
		t.Fatal("descriptor 0 malformed")
	}
	next := m.U16(d0 + 14)
	d1 := lay.Desc + mem.Addr(next)*16
	if m.U64(d1) != 0x9000 || m.U16(d1+12) != DescFWrite {
		t.Fatal("descriptor 1 malformed")
	}
}

func TestDriverQueueFullAndEmptyErrors(t *testing.T) {
	_, q := newRing(t, 2)
	if _, err := q.Add(nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
	if _, err := q.Add([]BufSeg{{Addr: 0, Len: 1}, {Addr: 0, Len: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Add([]BufSeg{{Addr: 0, Len: 1}}, nil); err == nil {
		t.Fatal("overfull ring accepted")
	}
}

func TestDriverQueueUsedHarvestAndReclaim(t *testing.T) {
	m, q := newRing(t, 4)
	h1, _ := q.Add([]BufSeg{{Addr: 0x100, Len: 10}}, "a")
	h2, _ := q.Add([]BufSeg{{Addr: 0x200, Len: 20}, {Addr: 0x300, Len: 30, DeviceWritten: true}}, "b")
	lay := q.lay
	// Device publishes h2 then h1 (out of order completion).
	pushUsed := func(i int, head uint16, written uint32) {
		slot := lay.Used + 4 + mem.Addr(i%4)*8
		m.PutU32(slot, uint32(head))
		m.PutU32(slot+4, written)
		m.PutU16(lay.Used+2, uint16(i+1))
	}
	pushUsed(0, h2, 30)
	pushUsed(1, h1, 0)
	u1, ok := q.GetUsed()
	if !ok || u1.Token != "b" || u1.Written != 30 {
		t.Fatalf("first used = %+v, %v", u1, ok)
	}
	u2, ok := q.GetUsed()
	if !ok || u2.Token != "a" {
		t.Fatalf("second used = %+v", u2)
	}
	if _, ok := q.GetUsed(); ok {
		t.Fatal("spurious third completion")
	}
	if q.NumFree() != 4 {
		t.Fatalf("numFree = %d after reclaim, want 4", q.NumFree())
	}
	// Ring must be reusable after reclaim.
	for i := 0; i < 4; i++ {
		if _, err := q.Add([]BufSeg{{Addr: 0x400, Len: 1}}, i); err != nil {
			t.Fatalf("re-add %d: %v", i, err)
		}
	}
}

func TestDriverQueueFlags(t *testing.T) {
	m, q := newRing(t, 4)
	q.SetNoInterrupt(true)
	if m.U16(q.lay.Avail) != AvailFNoInterrupt {
		t.Fatal("no-interrupt flag not published")
	}
	q.SetNoInterrupt(false)
	if m.U16(q.lay.Avail) != 0 {
		t.Fatal("no-interrupt flag not cleared")
	}
	if q.DeviceNoNotify() {
		t.Fatal("spurious no-notify")
	}
	m.PutU16(q.lay.Used, UsedFNoNotify)
	if !q.DeviceNoNotify() {
		t.Fatal("no-notify flag not seen")
	}
}

// hostDMA implements DMA directly against host memory with a fixed
// per-access latency, for exercising DeviceQueue without a full PCIe
// stack.
type hostDMA struct {
	m     *mem.Memory
	cost  sim.Duration
	reads int
}

func (d *hostDMA) ReadInto(p *sim.Proc, a mem.Addr, dst []byte) {
	d.reads++
	p.Sleep(d.cost)
	d.m.ReadInto(a, dst)
}

func (d *hostDMA) Write(p *sim.Proc, a mem.Addr, data []byte) {
	p.Sleep(d.cost)
	d.m.Write(a, data)
}

func TestDeviceQueueEndToEnd(t *testing.T) {
	m, q := newRing(t, 8)
	s := sim.New()
	dma := &hostDMA{m: m, cost: sim.Ns(500)}
	dq := newBlockingSplit(dma, q.lay)

	payload := []byte("ping-payload")
	m.Write(0x8000, payload)
	if _, err := q.Add([]BufSeg{
		{Addr: 0x8000, Len: len(payload)},
		{Addr: 0x9000, Len: 64, DeviceWritten: true},
	}, "rt"); err != nil {
		t.Fatal(err)
	}

	var devGot []byte
	s.Go("device", func(p *sim.Proc) {
		if !dq.HasPending(p) {
			t.Error("nothing pending")
			return
		}
		chain, tok, err := dq.NextChain(p)
		if err != nil {
			t.Error(err)
			return
		}
		if len(chain) != 2 {
			t.Errorf("chain len = %d", len(chain))
			return
		}
		devGot = dq.ReadChainInto(p, chain, nil)
		// Echo back into the writable segment.
		resp := append([]byte("echo:"), devGot...)
		written := dq.WriteChain(p, chain, resp)
		dq.Complete(p, tok, written)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(devGot, payload) {
		t.Fatalf("device read %q", devGot)
	}
	u, ok := q.GetUsed()
	if !ok || u.Token != "rt" {
		t.Fatalf("used = %+v, %v", u, ok)
	}
	want := append([]byte("echo:"), payload...)
	if u.Written != len(want) {
		t.Fatalf("written = %d, want %d", u.Written, len(want))
	}
	if !bytes.Equal(m.Read(0x9000, len(want)), want) {
		t.Fatal("echo payload mismatch")
	}
	if dma.reads == 0 {
		t.Fatal("device made no DMA reads")
	}
}

func TestDeviceQueueManyRoundTripsProperty(t *testing.T) {
	f := func(seed uint32, count uint8) bool {
		n := int(count)%32 + 1
		m, q := newRing(t, 64)
		s := sim.New()
		dq := newBlockingSplit(&hostDMA{m: m, cost: sim.Ns(100)}, q.lay)
		rng := sim.NewRNG(uint64(seed))
		bufBase := mem.Addr(0x10000)
		var sent [][]byte
		for i := 0; i < n; i++ {
			pl := make([]byte, rng.Intn(256)+1)
			rng.Bytes(pl)
			a := bufBase + mem.Addr(i)*0x400
			m.Write(a, pl)
			sent = append(sent, pl)
			if _, err := q.Add([]BufSeg{{Addr: a, Len: len(pl)}}, i); err != nil {
				return false
			}
		}
		got := make([][]byte, 0, n)
		s.Go("device", func(p *sim.Proc) {
			for dq.HasPending(p) {
				chain, tok, err := dq.NextChain(p)
				if err != nil {
					return
				}
				got = append(got, dq.ReadChainInto(p, chain, nil))
				dq.Complete(p, tok, 0)
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], sent[i]) {
				return false
			}
		}
		// All completions harvestable in order.
		for i := 0; i < n; i++ {
			u, ok := q.GetUsed()
			if !ok || u.Token != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeviceQueueSuppressionFlags(t *testing.T) {
	m, q := newRing(t, 4)
	s := sim.New()
	dq := newBlockingSplit(&hostDMA{m: m, cost: sim.Ns(10)}, q.lay)
	q.SetNoInterrupt(true)
	var suppressed, cleared bool
	s.Go("device", func(p *sim.Proc) {
		suppressed = !dq.ShouldInterrupt(p)
		dq.setNoNotify(p, true)
		q.SetNoInterrupt(false)
		cleared = dq.ShouldInterrupt(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !suppressed || !cleared {
		t.Fatalf("suppressed=%v cleared=%v", suppressed, cleared)
	}
	if !q.DeviceNoNotify() {
		t.Fatal("driver does not see device no-notify")
	}
}

func TestFetchChainLoopDetected(t *testing.T) {
	m, q := newRing(t, 4)
	lay := q.lay
	// Craft a self-looping descriptor.
	m.PutU64(lay.Desc, 0x100)
	m.PutU32(lay.Desc+8, 4)
	m.PutU16(lay.Desc+12, DescFNext)
	m.PutU16(lay.Desc+14, 0) // points to itself
	s := sim.New()
	dq := newBlockingSplit(&hostDMA{m: m, cost: 0}, lay)
	var err error
	s.Go("device", func(p *sim.Proc) {
		_, err = dq.fetchChain(p, m, 0)
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("descriptor loop not detected")
	}
}
