package virtio

import (
	"bytes"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

func TestNeedEventBasics(t *testing.T) {
	cases := []struct {
		event, new, old uint16
		want            bool
	}{
		{0, 1, 0, true},    // armed at 0, crossed to 1
		{1, 1, 0, false},   // threshold not yet passed
		{5, 6, 5, true},    // armed exactly at old
		{5, 10, 6, false},  // event passed before old: already notified
		{7, 10, 6, true},   // event within [old, new)
		{10, 10, 6, false}, // event at new: not yet crossed
		{9, 10, 6, true},   // event at new-1: crossing reached it
	}
	for _, c := range cases {
		if got := NeedEvent(c.event, c.new, c.old); got != c.want {
			t.Errorf("NeedEvent(%d,%d,%d) = %v, want %v", c.event, c.new, c.old, got, c.want)
		}
	}
	// Spec semantics spot checks.
	if !NeedEvent(3, 4, 3) {
		t.Error("event at old must fire when crossing one step")
	}
	if NeedEvent(2, 4, 3) {
		t.Error("event already passed before old must not fire")
	}
	if !NeedEvent(3, 5, 3) {
		t.Error("event inside (old,new] must fire")
	}
}

func TestNeedEventWrapAround(t *testing.T) {
	// Indices are free-running mod 2^16.
	if !NeedEvent(0xfffe, 0x0001, 0xfffd) {
		t.Error("wrap-around crossing must fire")
	}
	if NeedEvent(0x0005, 0x0001, 0xfffd) {
		t.Error("event beyond new must not fire across wrap")
	}
}

func TestNeedEventProperty(t *testing.T) {
	// Equivalent definition: fire iff event lies in [old, new) in
	// mod-2^16 arithmetic — armed no earlier than the last crossing and
	// strictly before the new index.
	f := func(event, new, old uint16) bool {
		inWindow := uint16(event-old) < uint16(new-old)
		return NeedEvent(event, new, old) == inWindow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventIdxDriverSuppression(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, 8)
	dq := NewDriverQueue(m, lay)
	dq.EnableEventIdx()
	if !dq.eventIdx {
		t.Fatal("event idx not enabled")
	}
	s := sim.New()
	dev := newBlockingSplit(&hostDMA{m: m, cost: sim.Ns(10)}, lay)
	dev.split().EnableEventIdx()

	// Post a buffer, device completes it: armed at 0 -> interrupt.
	buf := al.Alloc(64, 4)
	dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 1)
	var first, second, third bool
	s.Go("dev", func(p *sim.Proc) {
		_, tok, _ := dev.NextChain(p)
		dev.Complete(p, tok, 0)
		first = dev.ShouldInterrupt(p)

		// Driver suppresses (NAPI running): threshold behind.
		dq.SetNoInterrupt(true)
		dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 2)
		_, tok, _ = dev.NextChain(p)
		dev.Complete(p, tok, 0)
		second = dev.ShouldInterrupt(p)

		// Driver harvests and re-arms: next completion interrupts again.
		for {
			if _, ok := dq.GetUsed(); !ok {
				break
			}
		}
		dq.SetNoInterrupt(false)
		dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 3)
		_, tok, _ = dev.NextChain(p)
		dev.Complete(p, tok, 0)
		third = dev.ShouldInterrupt(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !first {
		t.Error("first completion should interrupt (armed at 0)")
	}
	if second {
		t.Error("suppressed completion interrupted")
	}
	if !third {
		t.Error("re-armed completion should interrupt")
	}
}

func TestEventIdxKickSuppression(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, 8)
	dq := NewDriverQueue(m, lay)
	dq.EnableEventIdx()
	s := sim.New()
	dev := newBlockingSplit(&hostDMA{m: m, cost: sim.Ns(10)}, lay)
	dev.split().EnableEventIdx()

	buf := al.Alloc(64, 4)
	// Initially avail_event is 0: first add must kick.
	dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 1)
	if !dq.NeedKick() {
		t.Fatal("first add must need a kick")
	}
	dq.KickDone()
	// Device has not updated avail_event: further adds need no kick
	// (the device is presumed busy polling).
	dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 2)
	if dq.NeedKick() {
		t.Fatal("second add should be covered by the first doorbell")
	}
	dq.KickDone()
	// Device consumes both and goes idle, publishing its threshold.
	s.Go("dev", func(p *sim.Proc) {
		dev.NextChain(p)
		dev.NextChain(p)
		dev.PublishIdleHint(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The next add crosses the device's threshold: kick needed again.
	dq.Add([]BufSeg{{Addr: buf, Len: 64}}, 3)
	if !dq.NeedKick() {
		t.Fatal("add after device idle must need a kick")
	}
}

func TestEventIdxRingLayoutTailAddresses(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0, 1<<16)
	lay := AllocRing(al, 16)
	// used_event sits right after the avail ring entries; avail_event
	// right after the used ring entries — inside the allocated areas.
	ue := lay.usedEventAddr()
	ae := lay.availEventAddr()
	if ue != lay.Avail+4+2*16 {
		t.Errorf("used_event at %#x", uint64(ue))
	}
	if ae != lay.Used+4+8*16 {
		t.Errorf("avail_event at %#x", uint64(ae))
	}
	// Writing them must not overlap other ring state.
	m.PutU16(ue, 0xaaaa)
	m.PutU16(ae, 0xbbbb)
	if m.U16(lay.Avail+4+2*15) == 0xaaaa || m.U16(lay.Used+4+8*15) == 0xbbbb {
		t.Error("event words overlap ring entries")
	}
}

func TestIndirectDescriptorRoundTrip(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, 8)
	dq := NewDriverQueue(m, lay)
	s := sim.New()
	dma := &hostDMA{m: m, cost: sim.Ns(100)}
	dev := newBlockingSplit(dma, lay)

	hdrBuf := al.Alloc(16, 4)
	dataBuf := al.Alloc(64, 4)
	statusBuf := al.Alloc(1, 1)
	table := al.Alloc(3*16, 16)
	m.Write(hdrBuf, []byte("hdr-hdr-hdr-hdr-"))
	m.Write(dataBuf, bytes.Repeat([]byte{0x42}, 64))

	if _, err := dq.AddIndirect([]BufSeg{
		{Addr: hdrBuf, Len: 16},
		{Addr: dataBuf, Len: 64},
		{Addr: statusBuf, Len: 1, DeviceWritten: true},
	}, "ind", table); err != nil {
		t.Fatal(err)
	}
	// Only one ring descriptor consumed.
	if dq.NumFree() != 7 {
		t.Fatalf("numFree = %d, want 7", dq.NumFree())
	}

	var got []byte
	readsBefore := 0
	s.Go("dev", func(p *sim.Proc) {
		readsBefore = dma.reads
		chain, tok, err := dev.NextChain(p)
		if err != nil {
			t.Error(err)
			return
		}
		// The whole 3-segment chain resolved in exactly 3 reads: the
		// avail-ring slot, the ring descriptor and the indirect table.
		if dma.reads-readsBefore != 3 {
			t.Errorf("chain fetch took %d reads, want 3", dma.reads-readsBefore)
		}
		if len(chain) != 3 {
			t.Errorf("chain len = %d", len(chain))
			return
		}
		got = dev.ReadChainInto(p, chain, nil)
		dev.WriteChain(p, chain, []byte{0})
		dev.Complete(p, tok, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 || got[16] != 0x42 {
		t.Fatalf("device read %d bytes", len(got))
	}
	u, ok := dq.GetUsed()
	if !ok || u.Token != "ind" || u.Written != 1 {
		t.Fatalf("used = %+v, %v", u, ok)
	}
	// Ring slot reclaimed.
	if dq.NumFree() != 8 {
		t.Fatalf("numFree after reclaim = %d", dq.NumFree())
	}
}

func TestIndirectMalformedRejected(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, 8)
	s := sim.New()
	dev := newBlockingSplit(&hostDMA{m: m, cost: 0}, lay)

	// Craft an indirect descriptor with a bad table length.
	m.PutU64(lay.Desc, 0x8000)
	m.PutU32(lay.Desc+8, 17) // not a multiple of 16
	m.PutU16(lay.Desc+12, DescFIndirect)
	var errBadLen, errNested error
	s.Go("dev", func(p *sim.Proc) {
		_, errBadLen = dev.fetchChain(p, m, 0)
		// Nested indirect: table entry itself flagged indirect.
		m.PutU32(lay.Desc+8, 16)
		m.PutU64(0x8000, 0x9000)
		m.PutU32(0x8000+8, 16)
		m.PutU16(0x8000+12, DescFIndirect)
		_, errNested = dev.fetchChain(p, m, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if errBadLen == nil {
		t.Error("bad table length accepted")
	}
	if errNested == nil {
		t.Error("nested indirect accepted")
	}
}

func TestAddIndirectRingFull(t *testing.T) {
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<16)
	lay := AllocRing(al, 2)
	dq := NewDriverQueue(m, lay)
	table := al.Alloc(16, 16)
	buf := al.Alloc(8, 4)
	for i := 0; i < 2; i++ {
		if _, err := dq.AddIndirect([]BufSeg{{Addr: buf, Len: 8}}, i, table); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dq.AddIndirect([]BufSeg{{Addr: buf, Len: 8}}, 9, table); err == nil {
		t.Fatal("overfull ring accepted indirect chain")
	}
	if _, err := dq.AddIndirect(nil, nil, table); err == nil {
		t.Fatal("empty indirect chain accepted")
	}
}
