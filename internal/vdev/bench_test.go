package vdev

import (
	"fmt"
	"testing"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/virtio"
)

// chainBed is a net device brought up by hand on an idle link, with the
// driver side of its RX and TX rings kept in host memory by the bench
// itself: no host driver, netstack or interrupt handler takes part.
type chainBed struct {
	s      *sim.Sim
	d      *NetDevice
	rx, tx virtio.DriverRing
	rxSeg  []virtio.BufSeg
	txSeg  []virtio.BufSeg
	post   func()
	left   int
}

func newChainBed(b *testing.B, packed bool, payload int) *chainBed {
	s := sim.New()
	hostMem := mem.New(1 << 20)
	rc := pcie.NewRootComplex(s, hostMem, pcie.DefaultCosts())
	d := NewNet(s, rc, "vnet", NetOptions{OfferPacked: packed})
	s.Go("enum", func(p *sim.Proc) { rc.Enumerate(p) })
	s.RunUntil(sim.Time(sim.Us(50)))

	// Bring the device up through its register block, as a driver would
	// over MMIO.
	c := d.ctrl
	feats := virtio.FVersion1
	if packed {
		feats |= virtio.FRingPacked
	}
	for sel := uint64(0); sel < 2; sel++ {
		c.commonWrite(virtio.CommonDriverFeatureSel, 4, sel)
		c.commonWrite(virtio.CommonDriverFeature, 4, uint64(feats)>>(32*sel)&0xffffffff)
	}
	status := uint64(virtio.StatusAcknowledge | virtio.StatusDriver | virtio.StatusFeaturesOK)
	c.commonWrite(virtio.CommonDeviceStatus, 1, status)
	al := mem.NewAllocator(hostMem, 0x1000, 1<<18)
	bed := &chainBed{s: s, d: d}
	for _, qi := range []int{NetQueueRX, NetQueueTX} {
		var desc, driver, device mem.Addr
		var ring virtio.DriverRing
		if packed {
			lay := virtio.AllocPackedRing(al, 64)
			desc, driver, device = lay.Ring, lay.DriverEvent, lay.DeviceEvent
			ring = virtio.NewPackedDriverQueue(hostMem, lay)
		} else {
			lay := virtio.AllocRing(al, 64)
			desc, driver, device = lay.Desc, lay.Avail, lay.Used
			ring = virtio.NewDriverQueue(hostMem, lay)
		}
		c.commonWrite(virtio.CommonQueueSelect, 2, uint64(qi))
		c.commonWrite(virtio.CommonQueueSize, 2, 64)
		c.commonWrite(virtio.CommonQueueDesc, 8, uint64(desc))
		c.commonWrite(virtio.CommonQueueDriver, 8, uint64(driver))
		c.commonWrite(virtio.CommonQueueDevice, 8, uint64(device))
		c.commonWrite(virtio.CommonQueueEnable, 2, 1)
		if qi == NetQueueRX {
			bed.rx = ring
		} else {
			bed.tx = ring
		}
	}
	c.commonWrite(virtio.CommonDeviceStatus, 1, status|virtio.StatusDriverOK)
	// The driver reclaims transmit buffers without an interrupt.
	bed.tx.SetNoInterrupt(true)

	// One echo request: a virtio-net header and a UDP frame.
	frame := netstack.UDPDatagram{
		SrcMAC: netstack.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netstack.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: netstack.IP(10, 0, 0, 1), DstIP: netstack.IP(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 9000, Payload: make([]byte, payload),
	}.EncodeFrameInto(nil, true)
	txBuf, rxBuf := al.Alloc(2048, 16), al.Alloc(2048, 16)
	hostMem.Fill(txBuf, virtio.NetHdrSize, 0)
	hostMem.Write(txBuf+virtio.NetHdrSize, frame)
	bed.txSeg = []virtio.BufSeg{{Addr: txBuf, Len: virtio.NetHdrSize + len(frame)}}
	bed.rxSeg = []virtio.BufSeg{{Addr: rxBuf, Len: 2048, DeviceWritten: true}}

	// Each round posts a receive buffer and a transmit chain and rings
	// the TX doorbell; the RX interrupt harvests both completions and
	// queues the next round behind it.
	bed.post = func() {
		if _, err := bed.rx.Add(bed.rxSeg, nil); err != nil {
			panic(err)
		}
		if _, err := bed.tx.Add(bed.txSeg, nil); err != nil {
			panic(err)
		}
		bed.tx.KickDone()
		c.notify(NetQueueTX)
	}
	rxVec := int(c.queues[NetQueueRX].msixVec)
	rc.SetIRQSink(func(ep *pcie.Endpoint, vec int) {
		if vec != rxVec {
			return
		}
		if _, ok := bed.rx.GetUsed(); !ok {
			panic("vdev: bench: RX interrupt with no completion")
		}
		if _, ok := bed.tx.GetUsed(); !ok {
			panic("vdev: bench: TX chain not completed")
		}
		// As a session takes each round's samples.
		c.queues[NetQueueRX].hw.Reset()
		c.queues[NetQueueTX].hw.Reset()
		d.respGen.Reset()
		if bed.left--; bed.left == 0 {
			s.Stop()
			return
		}
		s.After(0, "post", bed.post)
	})
	return bed
}

// rounds runs n echo rounds.
func (bed *chainBed) rounds(b *testing.B, n int) {
	bed.left = n
	bed.post()
	if err := bed.s.Run(); err != nil {
		b.Fatal(err)
	}
	if bed.left != 0 {
		b.Fatalf("%d rounds left", bed.left)
	}
}

// BenchmarkControllerChain measures one TX chain serviced and one RX
// delivery on an idle link: the TX engine's doorbell pickup, ring walk,
// gather and used publication, the net user logic's echo, and the
// delivery's ring walk, scatter, used publication and interrupt. Only
// the step machines of the controller run between the doorbell and the
// RX interrupt.
func BenchmarkControllerChain(b *testing.B) {
	for _, packed := range []bool{false, true} {
		for _, n := range []int{64, 1024} {
			format := "split"
			if packed {
				format = "packed"
			}
			b.Run(fmt.Sprintf("%s/%dB", format, n), func(b *testing.B) {
				bed := newChainBed(b, packed, n)
				bed.rounds(b, 8) // grow the scratch buffers
				b.ReportAllocs()
				b.ResetTimer()
				bed.rounds(b, b.N)
			})
		}
	}
}
