package vdev_test

import (
	"bytes"
	"math"
	"testing"

	"fpgavirtio/internal/drivers/virtioblk"
	"fpgavirtio/internal/drivers/virtioconsole"
	"fpgavirtio/internal/drivers/virtionet"
	"fpgavirtio/internal/drivers/virtiopci"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/vdev"
	"fpgavirtio/internal/virtio"
)

func quietHost(seed uint64) (*sim.Sim, *hostos.Host) {
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	return s, hostos.New(s, 8<<20, cfg, seed)
}

var testMAC = netstack.MAC{0x02, 0xfb, 0x0a, 0x00, 0x00, 0x01}

// netTestbed brings up host + VirtIO net FPGA + driver + stack and runs
// fn as the application process.
func netTestbed(t *testing.T, devOpts func(*vdev.NetOptions), drvOpts func(*virtionet.Options),
	fn func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device)) {
	t.Helper()
	s, h := quietHost(7)
	opt := vdev.NetOptions{
		MAC:         testMAC,
		OfferCsum:   true,
		OfferCtrlVQ: true,
		Link:        pcie.DefaultGen2x2(),
	}
	if devOpts != nil {
		devOpts(&opt)
	}
	dev := vdev.NewNet(s, h.RC, "vnet0", opt)
	st := netstack.New(h, netstack.DefaultCosts())
	failed := false
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		if len(infos) != 1 {
			t.Errorf("enumerated %d devices", len(infos))
			failed = true
			return
		}
		dopt := virtionet.DefaultOptions("eth-fpga")
		if drvOpts != nil {
			drvOpts(&dopt)
		}
		drv, err := virtionet.Probe(p, h, st, infos[0], dopt)
		if err != nil {
			t.Error(err)
			failed = true
			return
		}
		st.AddInterface(drv, netstack.IP(10, 0, 0, 1))
		st.AddRoute(netstack.IP(10, 0, 0, 0), netstack.IP(255, 255, 255, 0), "eth-fpga")
		st.AddARP(netstack.IP(10, 0, 0, 2), testMAC)
		fn(p, h, st, dev, drv)
	})
	if err := s.Run(); err != nil && !failed {
		t.Fatal(err)
	}
}

// echoClock is a lazy echo handler bound to the device clock after
// construction (NewEchoHandler(nil) placeholder is replaced).
func TestNetEchoRoundTrip(t *testing.T) {
	var echoed []byte
	netTestbed(t,
		func(o *vdev.NetOptions) {},
		nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			sock, err := st.Bind(4000)
			if err != nil {
				t.Error(err)
				return
			}
			payload := []byte("virtio-over-pcie-to-fpga")
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
				t.Error(err)
				return
			}
			got, from, fromPort, err := sock.RecvFrom(p)
			if err != nil {
				t.Error(err)
				return
			}
			echoed = got
			if from != netstack.IP(10, 0, 0, 2) || fromPort != 9000 {
				t.Errorf("reply from %v:%d", from, fromPort)
			}
			if !bytes.Equal(got, payload) {
				t.Errorf("echo = %q, want %q", got, payload)
			}
			if tx, rx := dev.Stats(); tx != 1 || rx != 1 {
				t.Errorf("device stats tx=%d rx=%d", tx, rx)
			}
			reg := h.Metrics()
			if tx, rx := reg.Counter(telemetry.MetricVirtionetTxPackets).Value(), reg.Counter(telemetry.MetricVirtionetRxPackets).Value(); tx != 1 || rx != 1 {
				t.Errorf("driver stats tx=%d rx=%d", tx, rx)
			}
		})
	if echoed == nil {
		t.Fatal("no echo received")
	}
}

func TestNetManyPacketsAllSizes(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			sock, _ := st.Bind(4001)
			rng := sim.NewRNG(11)
			for i, size := range []int{1, 18, 64, 128, 256, 512, 1024, 1400} {
				payload := make([]byte, size)
				rng.Bytes(payload)
				if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
					t.Errorf("send %d: %v", i, err)
					return
				}
				got, _, _, _ := sock.RecvFrom(p)
				if !bytes.Equal(got, payload) {
					t.Errorf("size %d: echo mismatch", size)
					return
				}
			}
			if tx, _ := dev.Stats(); tx != 8 {
				t.Errorf("device saw %d frames", tx)
			}
		})
}

func TestNetFeatureNegotiationCsum(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			f := dev.Controller().Negotiated()
			if !f.Has(virtio.FVersion1 | virtio.NetFCsum | virtio.NetFGuestCsum | virtio.NetFMAC) {
				t.Errorf("negotiated = %v", f)
			}
			off := drv.Offloads()
			if !off.TxCsum || !off.RxCsum {
				t.Errorf("offloads = %+v", off)
			}
			if drv.MAC() != testMAC {
				t.Errorf("driver MAC = %v", drv.MAC())
			}
			if drv.MTU() != 1500 {
				t.Errorf("MTU = %d", drv.MTU())
			}
		})
}

func TestNetCsumDeclined(t *testing.T) {
	netTestbed(t,
		func(o *vdev.NetOptions) { o.OfferCsum = false },
		nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			if drv.Offloads().TxCsum {
				t.Error("TxCsum negotiated despite device not offering")
			}
			// Traffic still works: software checksums.
			sock, _ := st.Bind(4002)
			payload := []byte("software checksummed")
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
				t.Error(err)
				return
			}
			got, _, _, _ := sock.RecvFrom(p)
			if !bytes.Equal(got, payload) {
				t.Error("echo mismatch without offload")
			}
		})
}

func TestNetCtrlQueuePromiscuous(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			if dev.Promiscuous() {
				t.Error("promisc set before command")
			}
			if err := drv.SetPromiscuous(p, true); err != nil {
				t.Errorf("ctrl command: %v", err)
				return
			}
			if !dev.Promiscuous() {
				t.Error("promisc not set on device")
			}
			if err := drv.SetPromiscuous(p, false); err != nil {
				t.Error(err)
			}
			if dev.Promiscuous() {
				t.Error("promisc not cleared")
			}
		})
}

func TestNetSingleRxInterruptPerPacket(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			sock, _ := st.Bind(4003)
			const n = 20
			for i := 0; i < n; i++ {
				if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("ping")); err != nil {
					t.Error(err)
					return
				}
				sock.RecvFrom(p)
			}
			// TX interrupts are suppressed, so interrupts ~= RX packets.
			// (A few extra are possible from ctrl/bring-up.)
			irqs := dev.Controller().EP().Stats().Interrupts
			if irqs < n || irqs > n+3 {
				t.Errorf("interrupts = %d for %d round trips", irqs, n)
			}
		})
}

func TestNetHardwareCountersRecord(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			sock, _ := st.Bind(4004)
			sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, make([]byte, 256))
			sock.RecvFrom(p)
			tx, okTx := dev.Controller().QueueCounter(vdev.NetQueueTX).TakeLast()
			rx, okRx := dev.Controller().QueueCounter(vdev.NetQueueRX).TakeLast()
			rg, okRg := dev.RespGenCounter().TakeLast()
			if !okTx || !okRx || !okRg {
				t.Fatalf("missing counter samples tx=%v rx=%v rg=%v", okTx, okRx, okRg)
			}
			for _, d := range []sim.Duration{tx, rx, rg} {
				if d <= 0 || d%sim.Ns(8) != 0 {
					t.Errorf("sample %v not positive/8ns-quantized", d)
				}
			}
			// The device-side ring walk involves several bus round trips:
			// hardware time must dominate the response generation.
			if tx < sim.Us(1) || rx < sim.Us(1) {
				t.Errorf("hw times implausibly small: tx=%v rx=%v", tx, rx)
			}
		})
}

func TestBypassInterface(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			// User logic moves data to/from host memory with no driver
			// involvement (paper §III-A).
			src := h.Alloc.Alloc(4096, 64)
			dst := h.Alloc.Alloc(4096, 64)
			want := make([]byte, 4096)
			sim.NewRNG(3).Bytes(want)
			h.Mem.Write(src, want)
			done := false
			p.Sim().Go("fabric", func(fp *sim.Proc) {
				data := dev.Controller().BypassRead(fp, src, len(want))
				dev.Controller().BypassWrite(fp, dst, data)
				done = true
			})
			// Give the fabric time to finish, then check.
			p.Sleep(sim.Ms(1))
			if !done {
				t.Error("bypass transfer did not finish")
				return
			}
			if !bytes.Equal(h.Mem.Read(dst, len(want)), want) {
				t.Error("bypass data mismatch")
			}
		})
}

func TestControllerResetMidOperation(t *testing.T) {
	netTestbed(t, nil, nil,
		func(p *sim.Proc, h *hostos.Host, st *netstack.Stack, dev *vdev.NetDevice, drv *virtionet.Device) {
			sock, _ := st.Bind(4005)
			sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, []byte("before reset"))
			sock.RecvFrom(p)
			// Reset through the transport: device must drop to status 0.
			drv.Transport().Reset(p)
			if dev.Controller().Status() != 0 {
				t.Errorf("status after reset = %#x", dev.Controller().Status())
			}
			if dev.Controller().Negotiated() != 0 {
				t.Error("features survived reset")
			}
		})
}

func TestConsoleEchoRoundTrip(t *testing.T) {
	s, h := quietHost(8)
	vdev.NewConsole(s, h.RC, "vcon0", vdev.ConsoleOptions{Link: pcie.DefaultGen2x2()})
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		con, err := virtioconsole.Probe(p, h, infos[0])
		if err != nil {
			t.Error(err)
			return
		}
		for _, msg := range []string{"hello", "fpga console", "third message"} {
			if err := con.Write(p, []byte(msg)); err != nil {
				t.Error(err)
				return
			}
			got, err := con.Read(p)
			if err != nil {
				t.Error(err)
				return
			}
			if string(got) != msg {
				t.Errorf("console echo = %q, want %q", got, msg)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBlkReadWriteFlush(t *testing.T) {
	s, h := quietHost(9)
	bdev := vdev.NewBlk(s, h.RC, "vblk0", vdev.BlkOptions{Link: pcie.DefaultGen2x2(), CapacitySectors: 128})
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		blk, err := virtioblk.Probe(p, h, infos[0])
		if err != nil {
			t.Error(err)
			return
		}
		if blk.CapacitySectors() != 128 {
			t.Errorf("capacity = %d", blk.CapacitySectors())
		}
		sector := make([]byte, virtio.BlkSectorSize)
		sim.NewRNG(12).Bytes(sector)
		if err := blk.WriteSector(p, 5, sector); err != nil {
			t.Error(err)
			return
		}
		if err := blk.Flush(p); err != nil {
			t.Error(err)
			return
		}
		got, err := blk.ReadSector(p, 5)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, sector) {
			t.Error("sector data mismatch")
		}
		// Out-of-range accesses fail cleanly.
		if _, err := blk.ReadSector(p, 500); err == nil {
			t.Error("out-of-range read succeeded")
		}
		if reads, writes := bdev.Stats(); reads != 1 || writes != 1 {
			t.Errorf("device stats r=%d w=%d", reads, writes)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestBlkDeviceRejectsOutOfRangeSector feeds the device request
// headers no driver check stands in front of: a sector so large that
// converting it to a byte offset would wrap negative, the first sector
// past the end, and a two-sector request straddling the end. Each must
// complete with an I/O error status and leave card memory untouched.
func TestBlkDeviceRejectsOutOfRangeSector(t *testing.T) {
	s, h := quietHost(11)
	const capacity = 128
	bdev := vdev.NewBlk(s, h.RC, "vblk0", vdev.BlkOptions{Link: pcie.DefaultGen2x2(), CapacitySectors: capacity})
	for _, tc := range []struct {
		name   string
		sector uint64
		count  int
	}{
		{"max-uint64", math.MaxUint64, 1},
		{"capacity", capacity, 1},
		{"straddles-end", capacity - 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.count * virtio.BlkSectorSize
			read := virtio.BlkReqHdr{Type: virtio.BlkTIn, Sector: tc.sector}.Encode()
			if got := bdev.HandleDriverChain(0, read, n+1); !bytes.Equal(got, []byte{virtio.BlkStatusIOErr}) {
				t.Errorf("read = %d bytes, status %v; want a lone I/O error status", len(got), got[len(got)-1])
			}
			write := append(virtio.BlkReqHdr{Type: virtio.BlkTOut, Sector: tc.sector}.Encode(), make([]byte, n)...)
			if got := bdev.HandleDriverChain(0, write, 1); !bytes.Equal(got, []byte{virtio.BlkStatusIOErr}) {
				t.Errorf("write status = %v, want I/O error", got)
			}
		})
	}
	if reads, writes := bdev.Stats(); reads != 0 || writes != 0 {
		t.Errorf("device completed r=%d w=%d out-of-range requests", reads, writes)
	}
}

func TestTransportProbeRejectsNonVirtio(t *testing.T) {
	s, h := quietHost(10)
	cs := pcie.NewConfigSpace(0x10ee, 0x7024, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := h.RC.Attach("xdma", cs, pcie.DefaultGen2x2())
	ep.SetBarHandlers(0, pcie.BarHandlers{})
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		if _, err := virtiopci.Probe(p, h, infos[0]); err == nil {
			t.Error("probe of non-virtio device succeeded")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
