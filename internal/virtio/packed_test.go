package virtio

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

func newPacked(t *testing.T, qsz int) (*mem.Memory, *mem.Allocator, *PackedDriverQueue, *blockingRing, *hostDMA) {
	t.Helper()
	m := mem.New(1 << 20)
	al := mem.NewAllocator(m, 0x1000, 1<<18)
	lay := AllocPackedRing(al, qsz)
	dq := NewPackedDriverQueue(m, lay)
	dma := &hostDMA{m: m, cost: sim.Ns(100)}
	dev := newBlockingPacked(dma, lay)
	return m, al, dq, dev, dma
}

func TestPackedSingleRoundTrip(t *testing.T) {
	m, al, dq, dev, dma := newPacked(t, 8)
	s := sim.New()
	out := al.Alloc(64, 4)
	in := al.Alloc(64, 4)
	m.Write(out, bytes.Repeat([]byte{0x5a}, 64))

	if _, err := dq.Add([]BufSeg{
		{Addr: out, Len: 64},
		{Addr: in, Len: 64, DeviceWritten: true},
	}, "tok"); err != nil {
		t.Fatal(err)
	}
	if dq.NumFree() != 6 {
		t.Fatalf("numFree = %d", dq.NumFree())
	}
	if !dq.NeedKick() {
		t.Fatal("first add must need a kick")
	}

	var gotData []byte
	s.Go("dev", func(p *sim.Proc) {
		if !dev.HasPending(p) {
			t.Error("device sees nothing pending")
			return
		}
		readsBefore := dma.reads
		chain, tok, err := dev.NextChain(p)
		if err != nil {
			t.Error(err)
			return
		}
		// Head was cached by HasPending: only the second descriptor
		// cost a read.
		if dma.reads-readsBefore != 1 {
			t.Errorf("NextChain cost %d reads, want 1", dma.reads-readsBefore)
		}
		if len(chain) != 2 || tok.Len != 2 {
			t.Errorf("chain = %d descs, tok %+v", len(chain), tok)
			return
		}
		gotData = dev.ReadChainInto(p, chain, nil)
		dev.WriteChain(p, chain, []byte("reply"))
		dev.Complete(p, tok, 5)
		if !dev.ShouldInterrupt(p) {
			t.Error("interrupt not requested with notifications enabled")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(gotData) != 64 || gotData[0] != 0x5a {
		t.Fatalf("device read %d bytes", len(gotData))
	}
	u, ok := dq.GetUsed()
	if !ok || u.Token != "tok" || u.Written != 5 {
		t.Fatalf("used = %+v, %v", u, ok)
	}
	if string(m.Read(in, 5)) != "reply" {
		t.Fatal("reply data missing")
	}
	if dq.NumFree() != 8 {
		t.Fatalf("slots not reclaimed: %d", dq.NumFree())
	}
}

func TestPackedWrapAroundManyChains(t *testing.T) {
	// A size-8 ring with 3-descriptor chains forces wrap-counter flips
	// at misaligned boundaries repeatedly.
	m, al, dq, dev, _ := newPacked(t, 8)
	s := sim.New()
	bufs := make([]mem.Addr, 3)
	for i := range bufs {
		bufs[i] = al.Alloc(32, 4)
	}
	const rounds = 50
	received := 0
	s.Go("dev", func(p *sim.Proc) {
		for received < rounds {
			if !dev.HasPending(p) {
				p.Sleep(sim.Us(1))
				continue
			}
			chain, tok, err := dev.NextChain(p)
			if err != nil {
				t.Error(err)
				return
			}
			if len(chain) != 3 {
				t.Errorf("round %d: chain len %d", received, len(chain))
				return
			}
			data := dev.ReadChainInto(p, chain, nil)
			dev.WriteChain(p, chain, data) // echo into writable seg
			dev.Complete(p, tok, len(data))
			received++
		}
	})
	s.Go("drv", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			payload := []byte{byte(i), byte(i + 1)}
			m.Write(bufs[0], payload)
			if _, err := dq.Add([]BufSeg{
				{Addr: bufs[0], Len: 2},
				{Addr: bufs[1], Len: 2},
				{Addr: bufs[2], Len: 4, DeviceWritten: true},
			}, i); err != nil {
				t.Error(err)
				return
			}
			for !dq.HasUsed() {
				p.Sleep(sim.Us(1))
			}
			u, _ := dq.GetUsed()
			if u.Token != i {
				t.Errorf("round %d: token %v", i, u.Token)
				return
			}
			if got := m.Read(bufs[2], 2); got[0] != byte(i) {
				t.Errorf("round %d: echo %v", i, got)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received != rounds {
		t.Fatalf("device processed %d/%d", received, rounds)
	}
}

func TestPackedRingFull(t *testing.T) {
	_, al, dq, _, _ := newPacked(t, 4)
	buf := al.Alloc(8, 4)
	for i := 0; i < 2; i++ {
		if _, err := dq.Add([]BufSeg{{Addr: buf, Len: 8}, {Addr: buf, Len: 8}}, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dq.Add([]BufSeg{{Addr: buf, Len: 8}}, 9); err == nil {
		t.Fatal("overfull packed ring accepted")
	}
	if _, err := dq.Add(nil, nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestPackedSuppressionFlags(t *testing.T) {
	m, al, dq, dev, _ := newPacked(t, 8)
	s := sim.New()
	buf := al.Alloc(8, 4)
	_ = m
	dq.SetNoInterrupt(true)
	var suppressed, reenabled bool
	s.Go("dev", func(p *sim.Proc) {
		suppressed = !dev.ShouldInterrupt(p)
		dq.SetNoInterrupt(false)
		reenabled = dev.ShouldInterrupt(p)
		// Device publishes its idle hint; driver then owes a kick for
		// the next add.
		dev.PublishIdleHint(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !suppressed || !reenabled {
		t.Fatalf("suppressed=%v reenabled=%v", suppressed, reenabled)
	}
	if _, err := dq.Add([]BufSeg{{Addr: buf, Len: 8}}, nil); err != nil {
		t.Fatal(err)
	}
	if !dq.NeedKick() {
		t.Fatal("kick owed after idle hint")
	}
	dq.KickDone()
	if dq.NeedKick() {
		t.Fatal("kick not cleared")
	}
}

func TestPackedHeadFlagsWrittenLast(t *testing.T) {
	// The head descriptor's flags are the visibility barrier: before Add
	// returns the head slot must carry the avail pattern, and chained
	// slots must already be fully populated.
	m, al, dq, _, _ := newPacked(t, 8)
	a := al.Alloc(8, 4)
	b := al.Alloc(8, 4)
	if _, err := dq.Add([]BufSeg{{Addr: a, Len: 8}, {Addr: b, Len: 8, DeviceWritten: true}}, nil); err != nil {
		t.Fatal(err)
	}
	lay := dq.lay
	head := m.U16(lay.slotAddr(0) + 14)
	second := m.U16(lay.slotAddr(1) + 14)
	if head&(PackedDescFAvail|PackedDescFUsed) != PackedDescFAvail {
		t.Fatalf("head flags %#x not avail", head)
	}
	if head&DescFNext == 0 {
		t.Fatal("head missing NEXT")
	}
	if second&DescFWrite == 0 {
		t.Fatal("second missing WRITE")
	}
}

func TestPackedDeterministicProperty(t *testing.T) {
	// Random chain lengths over many rounds: every payload must round
	// trip unchanged and slot accounting must return to full-free.
	f := func(seed uint32, roundsRaw uint8) bool {
		rounds := int(roundsRaw)%30 + 5
		m, al, dq, dev, _ := newPacked(t, 16)
		s := sim.New()
		rng := sim.NewRNG(uint64(seed))
		outBuf := al.Alloc(256, 4)
		inBuf := al.Alloc(256, 4)
		ok := true
		s.Go("pair", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				n := rng.Intn(200) + 1
				payload := make([]byte, n)
				rng.Bytes(payload)
				m.Write(outBuf, payload)
				segs := []BufSeg{{Addr: outBuf, Len: n}}
				// Sometimes split the readable part in two.
				if n > 2 && rng.Bool(0.5) {
					half := n / 2
					segs = []BufSeg{
						{Addr: outBuf, Len: half},
						{Addr: outBuf + mem.Addr(half), Len: n - half},
					}
				}
				segs = append(segs, BufSeg{Addr: inBuf, Len: n, DeviceWritten: true})
				if _, err := dq.Add(segs, i); err != nil {
					ok = false
					return
				}
				if !dev.HasPending(p) {
					ok = false
					return
				}
				chain, tok, err := dev.NextChain(p)
				if err != nil {
					ok = false
					return
				}
				data := dev.ReadChainInto(p, chain, nil)
				if !bytes.Equal(data, payload) {
					ok = false
					return
				}
				dev.WriteChain(p, chain, data)
				dev.Complete(p, tok, len(data))
				u, got := dq.GetUsed()
				if !got || u.Token != i {
					ok = false
					return
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok && dq.NumFree() == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPackedUnknownCompletionPanics: a used descriptor naming a buffer
// id with no chain in flight, or an id past the ring, panics with the
// same message either way; a completed id is unknown again.
func TestPackedUnknownCompletionPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		id   uint16
		add  bool // publish and complete chain 0 first
	}{
		{"idle id", 5, false},
		{"out of range", 999, false},
		{"completed id", 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, al, dq, _, _ := newPacked(t, 8)
			slot := dq.lay.slotAddr(0)
			if c.add {
				if _, err := dq.Add([]BufSeg{{Addr: al.Alloc(16, 4), Len: 16}}, "tok"); err != nil {
					t.Fatal(err)
				}
				m.PutU16(slot+14, usedBits(true))
				if u, ok := dq.GetUsed(); !ok || u.Token != "tok" {
					t.Fatalf("GetUsed = %+v, %v", u, ok)
				}
				// Mark slot 1 used in the same lap, naming chain 0 again.
				slot = dq.lay.slotAddr(1)
			}
			m.PutU16(slot+12, c.id)
			m.PutU16(slot+14, usedBits(true))
			want := fmt.Sprintf("virtio: packed completion for unknown buffer id %d", c.id)
			got := func() (r any) {
				defer func() { r = recover() }()
				dq.GetUsed()
				return nil
			}()
			if got != want {
				t.Fatalf("GetUsed panicked with %#v, want %q", got, want)
			}
		})
	}
}
