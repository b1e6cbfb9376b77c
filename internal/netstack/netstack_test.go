package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/sim"
)

func TestMACIPStrings(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("MAC = %s", m)
	}
	if IP(10, 0, 0, 2).String() != "10.0.0.2" {
		t.Fatalf("IP = %s", IP(10, 0, 0, 2))
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b, 0); got != 0x220d {
		t.Fatalf("checksum = %#x, want 0x220d", got)
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(append([]byte{}, data...), 0) // checksum lives at an even offset
		}
		cs := Checksum(data, 0)
		withCs := append(append([]byte{}, data...), byte(cs>>8), byte(cs))
		return Checksum(withCs, 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sampleDatagram(payload []byte) UDPDatagram {
	return UDPDatagram{
		SrcMAC: MAC{2, 0, 0, 0, 0, 1}, DstMAC: MAC{2, 0, 0, 0, 0, 2},
		SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2),
		SrcPort: 5555, DstPort: 7777,
		Payload: payload,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	d := sampleDatagram([]byte("the quick brown fox"))
	f := d.EncodeFrameInto(nil, true)
	if !VerifyIPChecksum(f) || !VerifyUDPChecksum(f) {
		t.Fatal("checksums invalid after encode")
	}
	got, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcMAC != d.SrcMAC || got.DstMAC != d.DstMAC ||
		got.SrcIP != d.SrcIP || got.DstIP != d.DstIP ||
		got.SrcPort != d.SrcPort || got.DstPort != d.DstPort ||
		!bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sp, dp uint16, a, b uint32) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		d := UDPDatagram{
			SrcMAC: MAC{2, 1, 1, 1, 1, 1}, DstMAC: MAC{2, 2, 2, 2, 2, 2},
			SrcIP: IPv4(a), DstIP: IPv4(b),
			SrcPort: sp, DstPort: dp,
			Payload: payload,
		}
		fr := d.EncodeFrameInto(nil, true)
		if !VerifyIPChecksum(fr) || !VerifyUDPChecksum(fr) {
			return false
		}
		got, err := DecodeFrame(fr)
		if err != nil {
			return false
		}
		return got.SrcIP == d.SrcIP && got.DstIP == d.DstIP &&
			got.SrcPort == sp && got.DstPort == dp &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinFramePadding(t *testing.T) {
	d := sampleDatagram([]byte{1})
	f := d.EncodeFrameInto(nil, true)
	if len(f) != MinFrameSize {
		t.Fatalf("frame = %d bytes, want %d", len(f), MinFrameSize)
	}
	got, err := DecodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 1 {
		t.Fatalf("payload len %d despite padding", len(got.Payload))
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFrame(make([]byte, 10)); err == nil {
		t.Fatal("short frame accepted")
	}
	d := sampleDatagram([]byte("x"))
	f := d.EncodeFrameInto(nil, true)
	f[12] = 0x08
	f[13] = 0x06 // ARP
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("non-IPv4 accepted")
	}
	f = d.EncodeFrameInto(nil, true)
	f[EthHdrSize+9] = 6 // TCP
	if _, err := DecodeFrame(f); err == nil {
		t.Fatal("non-UDP accepted")
	}
}

func TestZeroUDPChecksumPasses(t *testing.T) {
	d := sampleDatagram([]byte("no checksum"))
	f := d.EncodeFrameInto(nil, false)
	if !VerifyUDPChecksum(f) {
		t.Fatal("zero checksum must pass per RFC 768")
	}
	// Fill it like an offloading device would, then verify again.
	if err := FillUDPChecksum(f); err != nil {
		t.Fatal(err)
	}
	udp := f[EthHdrSize+IPv4HdrSize:]
	if udp[6] == 0 && udp[7] == 0 {
		t.Fatal("FillUDPChecksum left field zero")
	}
	if !VerifyUDPChecksum(f) {
		t.Fatal("filled checksum invalid")
	}
}

func TestCorruptedChecksumDetected(t *testing.T) {
	d := sampleDatagram([]byte("payload-to-corrupt"))
	f := d.EncodeFrameInto(nil, true)
	f[len(f)-1] ^= 0xff
	if VerifyUDPChecksum(f) {
		t.Fatal("corruption not detected")
	}
}

func TestBuildEchoResponse(t *testing.T) {
	d := sampleDatagram([]byte("ping"))
	req := d.EncodeFrameInto(nil, true)
	resp, err := BuildEchoResponseInto(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcMAC != d.DstMAC || got.DstMAC != d.SrcMAC {
		t.Fatal("MACs not swapped")
	}
	if got.SrcIP != d.DstIP || got.DstIP != d.SrcIP {
		t.Fatal("IPs not swapped")
	}
	if got.SrcPort != d.DstPort || got.DstPort != d.SrcPort {
		t.Fatal("ports not swapped")
	}
	if !bytes.Equal(got.Payload, d.Payload) {
		t.Fatal("payload altered")
	}
	if !VerifyUDPChecksum(resp) || !VerifyIPChecksum(resp) {
		t.Fatal("response checksums invalid")
	}
}

// loopNIC immediately reflects every transmitted frame back into the
// stack as an echo response, emulating a zero-latency echo device.
type loopNIC struct {
	stack    *Stack
	offloads Offloads
	sent     int
	lastPkt  TxPacket
}

func (n *loopNIC) Name() string       { return "lo-echo" }
func (n *loopNIC) MAC() MAC           { return MAC{2, 0, 0, 0, 0, 0xaa} }
func (n *loopNIC) Offloads() Offloads { return n.offloads }

func (n *loopNIC) Xmit(p *sim.Proc, pkt TxPacket) error {
	n.sent++
	n.lastPkt = pkt
	frame := append([]byte{}, pkt.Frame...)
	if pkt.NeedsCsum {
		if err := FillUDPChecksum(frame); err != nil {
			return err
		}
	}
	resp, err := BuildEchoResponseInto(frame, nil)
	if err != nil {
		return err
	}
	st := n.stack
	p.Sim().GoAfter(sim.Us(2), "rx", func(rp *sim.Proc) {
		if err := st.Input(rp, RxPacket{Frame: resp, CsumValid: n.offloads.RxCsum}); err != nil {
			panic(err)
		}
	})
	return nil
}

func quietHost(t *testing.T) (*sim.Sim, *hostos.Host) {
	t.Helper()
	s := sim.New()
	cfg := hostos.DefaultConfig()
	cfg.JitterSigma = 0
	cfg.PreemptMeanGap = 0
	cfg.WakeTailProb = 0
	return s, hostos.New(s, 1<<20, cfg, 1)
}

func buildStack(t *testing.T, off Offloads) (*sim.Sim, *Stack, *loopNIC) {
	s, h := quietHost(t)
	st := New(h, DefaultCosts())
	nic := &loopNIC{stack: st, offloads: off}
	st.AddInterface(nic, IP(10, 0, 0, 1))
	st.AddRoute(IP(10, 0, 0, 0), IP(255, 255, 255, 0), "lo-echo")
	st.AddARP(IP(10, 0, 0, 2), MAC{2, 0, 0, 0, 0, 0xbb})
	return s, st, nic
}

func TestSocketSendRecvRoundTrip(t *testing.T) {
	s, st, nic := buildStack(t, Offloads{})
	sock, err := st.Bind(5000)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello fpga")
	var got []byte
	var from IPv4
	s.Go("app", func(p *sim.Proc) {
		if err := sock.SendTo(p, IP(10, 0, 0, 2), 7, payload); err != nil {
			t.Error(err)
			return
		}
		got, from, _, _ = sock.RecvFrom(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo payload = %q", got)
	}
	if from != IP(10, 0, 0, 2) {
		t.Fatalf("from = %v", from)
	}
	if nic.sent != 1 {
		t.Fatalf("nic sent %d frames", nic.sent)
	}
	if nic.lastPkt.NeedsCsum {
		t.Fatal("software-checksum NIC got NeedsCsum")
	}
}

func TestTxChecksumOffloadMetadata(t *testing.T) {
	s, st, nic := buildStack(t, Offloads{TxCsum: true, RxCsum: true})
	sock, _ := st.Bind(5001)
	s.Go("app", func(p *sim.Proc) {
		if err := sock.SendTo(p, IP(10, 0, 0, 2), 7, []byte("offloaded")); err != nil {
			t.Error(err)
			return
		}
		sock.RecvFrom(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !nic.lastPkt.NeedsCsum {
		t.Fatal("offload NIC did not get NeedsCsum")
	}
	if nic.lastPkt.CsumStart != EthHdrSize+IPv4HdrSize || nic.lastPkt.CsumOffset != 6 {
		t.Fatalf("csum meta = %d/%d", nic.lastPkt.CsumStart, nic.lastPkt.CsumOffset)
	}
	// With offload, the stack must have left the checksum zero.
	udp := nic.lastPkt.Frame[EthHdrSize+IPv4HdrSize:]
	if udp[6] != 0 || udp[7] != 0 {
		t.Fatal("stack computed checksum despite offload")
	}
}

func TestOffloadReducesCPUTime(t *testing.T) {
	measure := func(off Offloads) sim.Duration {
		s, st, _ := buildStack(t, off)
		sock, _ := st.Bind(5002)
		var took sim.Duration
		s.Go("app", func(p *sim.Proc) {
			payload := make([]byte, 1024)
			t0 := p.Now()
			if err := sock.SendTo(p, IP(10, 0, 0, 2), 7, payload); err != nil {
				t.Error(err)
				return
			}
			took = p.Now().Sub(t0)
			sock.RecvFrom(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	sw := measure(Offloads{})
	hw := measure(Offloads{TxCsum: true, RxCsum: true})
	if hw >= sw {
		t.Fatalf("offloaded send (%v) not cheaper than software (%v)", hw, sw)
	}
}

func TestRouteSelection(t *testing.T) {
	s, st, _ := buildStack(t, Offloads{})
	sock, _ := st.Bind(5003)
	var errNoRoute, errNoARP error
	s.Go("app", func(p *sim.Proc) {
		errNoRoute = sock.SendTo(p, IP(192, 168, 9, 9), 7, []byte("x"))
		errNoARP = sock.SendTo(p, IP(10, 0, 0, 99), 7, []byte("x"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if errNoRoute == nil {
		t.Fatal("send without route succeeded")
	}
	if errNoARP == nil {
		t.Fatal("send without ARP entry succeeded")
	}
}

func TestBindConflict(t *testing.T) {
	_, st, _ := buildStack(t, Offloads{})
	if _, err := st.Bind(6000); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Bind(6000); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestInputDropsUnknownPort(t *testing.T) {
	s, st, _ := buildStack(t, Offloads{})
	d := sampleDatagram([]byte("stray"))
	d.DstPort = 9999 // not bound
	frame := d.EncodeFrameInto(nil, true)
	var err error
	s.Go("rx", func(p *sim.Proc) {
		err = st.Input(p, RxPacket{Frame: frame})
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil {
		t.Fatal("stray packet not rejected")
	}
}

func TestInputRejectsBadChecksum(t *testing.T) {
	s, st, _ := buildStack(t, Offloads{})
	sock, _ := st.Bind(7777)
	_ = sock
	d := sampleDatagram([]byte("corrupt-me"))
	frame := d.EncodeFrameInto(nil, true)
	frame[EthHdrSize+IPv4HdrSize+UDPHdrSize] ^= 1 // flip a payload byte, not trailing pad
	var errSW, errHW error
	s.Go("rx", func(p *sim.Proc) {
		errSW = st.Input(p, RxPacket{Frame: frame})
		// With CsumValid set, the (corrupted) packet is trusted: the
		// device claimed it verified it.
		errHW = st.Input(p, RxPacket{Frame: frame, CsumValid: true})
	})
	if e := s.Run(); e != nil {
		t.Fatal(e)
	}
	if errSW == nil {
		t.Fatal("bad checksum accepted in software path")
	}
	if errHW != nil {
		t.Fatalf("CsumValid packet rejected: %v", errHW)
	}
}
