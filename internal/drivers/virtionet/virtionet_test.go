package virtionet_test

import (
	"bytes"
	"testing"

	"fpgavirtio/internal/drivers/virtionet"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/vdev"
	"fpgavirtio/internal/virtio"
)

var mac = netstack.MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}

func testbed(t *testing.T, devMut func(*vdev.NetOptions)) (*sim.Sim, *hostos.Host, *netstack.Stack, *vdev.NetDevice) {
	t.Helper()
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	h := hostos.New(s, 8<<20, cfg, 4)
	opt := vdev.NetOptions{Link: pcie.DefaultGen2x2(), MAC: mac, OfferCsum: true, OfferCtrlVQ: true, MTU: 1500}
	if devMut != nil {
		devMut(&opt)
	}
	dev := vdev.NewNet(s, h.RC, "vnet", opt)
	st := netstack.New(h, netstack.DefaultCosts())
	return s, h, st, dev
}

func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	s.Go("test", func(p *sim.Proc) {
		defer s.Stop()
		fn(p)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test did not finish")
	}
}

func probe(t *testing.T, p *sim.Proc, h *hostos.Host, st *netstack.Stack, opt virtionet.Options) *virtionet.Device {
	t.Helper()
	infos := h.RC.Enumerate(p)
	d, err := virtionet.Probe(p, h, st, infos[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	st.AddInterface(d, netstack.IP(10, 0, 0, 1))
	st.AddRoute(netstack.IP(10, 0, 0, 0), netstack.IP(255, 255, 255, 0), d.Name())
	st.AddARP(netstack.IP(10, 0, 0, 2), mac)
	return d
}

func TestConfigSpaceFieldsReachDriver(t *testing.T) {
	s, h, st, _ := testbed(t, func(o *vdev.NetOptions) { o.MTU = 9000 })
	run(t, s, func(p *sim.Proc) {
		d := probe(t, p, h, st, virtionet.DefaultOptions("eth0"))
		if d.MAC() != mac {
			t.Errorf("MAC = %v", d.MAC())
		}
		if d.MTU() != 9000 {
			t.Errorf("MTU = %d, want 9000", d.MTU())
		}
	})
}

func TestSmallQueueRingPressure(t *testing.T) {
	// A 4-entry TX queue with many sends exercises the reclaim path
	// and, when exhausted, the netif-stop wait.
	s, h, st, dev := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		opt := virtionet.DefaultOptions("eth0")
		opt.QueueSize = 4
		opt.RXBuffers = 4
		probe(t, p, h, st, opt)
		sock, err := st.Bind(9100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("pressure")); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
			got, _, _, err := sock.RecvFrom(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("pressure")) {
				t.Fatalf("echo %d mismatch", i)
			}
		}
		if tx, rx := dev.Stats(); tx != 32 || rx != 32 {
			t.Errorf("device frames tx=%d rx=%d", tx, rx)
		}
	})
}

func TestBurstThenDrain(t *testing.T) {
	// Fire a burst of sends before receiving anything: the RX queue's
	// pre-posted buffers and NAPI batching must deliver every reply.
	s, h, st, _ := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		probe(t, p, h, st, virtionet.DefaultOptions("eth0"))
		sock, err := st.Bind(9200)
		if err != nil {
			t.Fatal(err)
		}
		const burst = 16
		for i := 0; i < burst; i++ {
			payload := []byte{byte(i), 1, 2, 3}
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[byte]bool{}
		for i := 0; i < burst; i++ {
			got, _, _, err := sock.RecvFrom(p)
			if err != nil {
				t.Fatal(err)
			}
			seen[got[0]] = true
		}
		if len(seen) != burst {
			t.Errorf("received %d distinct replies, want %d", len(seen), burst)
		}
	})
}

func TestCtrlQueueAbsentWhenNotNegotiated(t *testing.T) {
	s, h, st, _ := testbed(t, func(o *vdev.NetOptions) { o.OfferCtrlVQ = false })
	run(t, s, func(p *sim.Proc) {
		opt := virtionet.DefaultOptions("eth0")
		d := probe(t, p, h, st, opt)
		if err := d.SetPromiscuous(p, true); err == nil {
			t.Error("ctrl command succeeded without control queue")
		}
	})
}

func TestRxIRQCountsWithTxSuppression(t *testing.T) {
	s, h, st, _ := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		probe(t, p, h, st, virtionet.DefaultOptions("eth0"))
		sock, _ := st.Bind(9300)
		const n = 10
		for i := 0; i < n; i++ {
			sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("x"))
			sock.RecvFrom(p)
		}
		reg := h.Metrics()
		if irqs := reg.Counter(telemetry.MetricVirtionetRxIRQs).Value(); irqs != n {
			t.Errorf("RX IRQs = %d, want %d (one per packet in ping-pong)", irqs, n)
		}
		tx, rx := reg.Counter(telemetry.MetricVirtionetTxPackets).Value(), reg.Counter(telemetry.MetricVirtionetRxPackets).Value()
		if tx != n || rx != n {
			t.Errorf("driver counters tx=%d rx=%d", tx, rx)
		}
	})
}

func TestTxInterruptPathWithTinyRing(t *testing.T) {
	// With TX interrupts enabled and a 4-slot ring, bursts exercise the
	// netif-stop wait and the onTxIRQ reclaim/wake path.
	s, h, st, _ := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		opt := virtionet.DefaultOptions("eth0")
		opt.SuppressTxInterrupts = false
		opt.QueueSize = 4
		opt.RXBuffers = 4
		probe(t, p, h, st, opt)
		sock, err := st.Bind(9400)
		if err != nil {
			t.Fatal(err)
		}
		const burst = 8 // twice the ring size: the sender must stall and recover
		for i := 0; i < burst; i++ {
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte{byte(i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		seen := 0
		for i := 0; i < burst; i++ {
			if _, _, _, err := sock.RecvFrom(p); err != nil {
				t.Fatal(err)
			}
			seen++
		}
		if seen != burst {
			t.Fatalf("received %d/%d", seen, burst)
		}
	})
}

func TestWantEventIdxAndPackedNegotiation(t *testing.T) {
	s, h, st, dev := testbed(t, func(o *vdev.NetOptions) {
		o.OfferEventIdx = true
		o.OfferPacked = true
	})
	run(t, s, func(p *sim.Proc) {
		opt := virtionet.DefaultOptions("eth0")
		opt.WantEventIdx = true
		opt.WantPacked = true
		probe(t, p, h, st, opt)
		neg := dev.Controller().Negotiated()
		if !neg.Has(virtio.FRingPacked) {
			t.Errorf("packed not negotiated: %v", neg)
		}
		sock, _ := st.Bind(9500)
		for i := 0; i < 5; i++ {
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("pk")); err != nil {
				t.Fatal(err)
			}
			got, _, _, err := sock.RecvFrom(p)
			if err != nil || !bytes.Equal(got, []byte("pk")) {
				t.Fatalf("packed echo %d failed: %q %v", i, got, err)
			}
		}
	})
}

// rxUsedRing reads the first RX queue's used-ring address and size back
// from the device's common configuration window, found by walking the
// capability list as the transport does.
func rxUsedRing(t *testing.T, p *sim.Proc, h *hostos.Host) (mem.Addr, int) {
	t.Helper()
	ep := h.RC.Endpoints()[0]
	var common uint64
	for ptr := int(h.RC.ConfigRead32(p, ep, pcie.CfgCapPtr) & 0xff); ptr != 0; {
		hdr := h.RC.ConfigRead32(p, ep, ptr)
		if byte(hdr) == pcie.CapIDVendor {
			var body []byte
			for i := 0; i < 5; i++ {
				w := h.RC.ConfigRead32(p, ep, ptr+4*i)
				body = append(body, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
			}
			c, err := virtio.DecodePCICap(body[2:])
			if err != nil {
				t.Fatal(err)
			}
			if c.CfgType == virtio.CfgTypeCommon {
				bar := h.RC.ConfigRead32(p, ep, pcie.CfgBAR0+4*int(c.Bar)) &^ 0xf
				common = uint64(bar) + uint64(c.Offset)
			}
		}
		ptr = int(hdr >> 8 & 0xff)
	}
	if common == 0 {
		t.Fatal("no common configuration capability")
	}
	h.RC.MMIOWrite(p, common+virtio.CommonQueueSelect, 2, uint64(virtio.NetRXQueue(0)))
	size := int(h.RC.MMIORead(p, common+virtio.CommonQueueSize, 2))
	lo := h.RC.MMIORead(p, common+virtio.CommonQueueDevice, 4)
	hi := h.RC.MMIORead(p, common+virtio.CommonQueueDevice+4, 4)
	return mem.Addr(hi<<32 | lo), size
}

// TestRxRejectsUsedLenOutsideBuffer overwrites the device-written
// used-ring length of an echoed frame before the driver harvests it.
// A length past the posted buffer must not be copied or delivered: the
// driver drops the frame, counts it, and reposts the buffer, so later
// frames still arrive. The drop counter only exists once a drop happens.
func TestRxRejectsUsedLenOutsideBuffer(t *testing.T) {
	s, h, st, _ := testbed(t, nil)
	run(t, s, func(p *sim.Proc) {
		opt := virtionet.DefaultOptions("eth0")
		opt.PollMode = true
		d := probe(t, p, h, st, opt)
		used, qsize := rxUsedRing(t, p, h)
		sock, err := st.Bind(9400)
		if err != nil {
			t.Fatal(err)
		}
		lenErrs := func() (int64, bool) {
			for _, m := range h.Metrics().Snapshot() {
				if m.Name == telemetry.MetricVirtionetRxLenErrors {
					return int64(m.Value), true
				}
			}
			return 0, false
		}
		// echo sends one datagram and waits until the device has
		// published the echoed frame's used entry; it returns the
		// address of that entry's len word.
		echo := func() mem.Addr {
			idx := h.Mem.U16(used + 2)
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("len")); err != nil {
				t.Fatal(err)
			}
			for h.Mem.U16(used+2) == idx {
				p.Sleep(sim.Us(1))
			}
			return used + 4 + mem.Addr(idx%uint16(qsize))*8 + 4
		}
		harvest := func(wantPending int) {
			t.Helper()
			if n := d.BusyPoll(p); n != 1 {
				t.Fatalf("BusyPoll harvested %d completions, want 1", n)
			}
			if got := sock.Pending(); got != wantPending {
				t.Fatalf("socket holds %d datagrams, want %d", got, wantPending)
			}
		}

		echo()
		harvest(1)
		if _, ok := lenErrs(); ok {
			t.Fatal("length-error counter registered before any bad length")
		}
		rxBufSize := virtio.NetHdrSize + netstack.EthHdrSize + int(d.MTU()) + 64
		for i, bad := range []uint32{uint32(rxBufSize) + 1, 1 << 31} {
			h.Mem.PutU32(echo(), bad)
			harvest(1)
			if n, _ := lenErrs(); n != int64(i+1) {
				t.Fatalf("after used len %d: %d length errors counted, want %d", bad, n, i+1)
			}
		}
		// The reposted buffers keep the ring usable.
		for i := 0; i < 2*qsize; i++ {
			echo()
			harvest(2)
			if _, _, _, err := sock.RecvFrom(p); err != nil {
				t.Fatal(err)
			}
		}
		if rx := h.Metrics().Counter(telemetry.MetricVirtionetRxPackets).Value(); rx != int64(1+2*qsize) {
			t.Fatalf("driver delivered %d frames, want %d", rx, 1+2*qsize)
		}
	})
}
