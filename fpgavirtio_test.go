package fpgavirtio_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	fpgavirtio "fpgavirtio"
)

func TestNetSessionPing(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 256)
	echo, rtt, err := ns.Ping(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Fatal("echo mismatch")
	}
	if rtt < 10*time.Microsecond || rtt > 500*time.Microsecond {
		t.Fatalf("rtt = %v outside plausible range", rtt)
	}
}

func TestNetSessionDetailedBreakdown(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 2, Quiet: true}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ns.PingDetailed(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if s.Hardware <= 0 || s.Software <= 0 || s.RespGen <= 0 {
		t.Fatalf("breakdown has zero component: %+v", s)
	}
	if got := s.Software + s.Hardware + s.RespGen; got != s.Total {
		t.Fatalf("decomposition does not sum: %+v", s)
	}
	// VirtIO: the device walks the rings itself, so hardware time
	// exceeds the software share (paper Fig. 4).
	if s.Hardware <= s.Software {
		t.Fatalf("VirtIO hardware (%v) should exceed software (%v)", s.Hardware, s.Software)
	}
}

func TestNetSessionDeterministicBySeed(t *testing.T) {
	measure := func(seed uint64) time.Duration {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		_, rtt, err := ns.Ping(make([]byte, 128))
		if err != nil {
			t.Fatal(err)
		}
		return rtt
	}
	if measure(42) != measure(42) {
		t.Fatal("same seed produced different latencies")
	}
}

func TestNetSessionFeaturesAndCtrl(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !ns.ChecksumOffloaded() {
		t.Fatal("checksum offload not negotiated by default")
	}
	if err := ns.SetPromiscuous(true); err != nil {
		t.Fatal(err)
	}
	if !ns.Promiscuous() {
		t.Fatal("promiscuous not set")
	}
	off, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:             fpgavirtio.Config{Seed: 3},
		DisableCsumOffload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if off.ChecksumOffloaded() {
		t.Fatal("offload negotiated despite disable")
	}
}

func TestNetSessionBypass(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 4, Quiet: true}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ns.BypassCopy(4096)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("bypass duration %v", d)
	}
}

func TestXDMASessionRoundTrip(t *testing.T) {
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 5, Quiet: true}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xs.RoundTripDetailed(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total <= 0 || s.Hardware <= 0 || s.Software <= 0 {
		t.Fatalf("breakdown = %+v", s)
	}
	// XDMA: the driver does the descriptor work and fields two
	// interrupts, so software exceeds hardware (paper Fig. 5).
	if s.Software <= s.Hardware {
		t.Fatalf("XDMA software (%v) should exceed hardware (%v)", s.Software, s.Hardware)
	}
	st := xs.BusStats()
	if st.Interrupts != 2 {
		t.Fatalf("interrupts = %d, want 2 (H2C + C2H)", st.Interrupts)
	}
}

func TestConsoleSession(t *testing.T) {
	cs, err := fpgavirtio.OpenConsole(fpgavirtio.Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("console over virtio over pcie")
	echo, rtt, err := cs.WriteRead(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, msg) {
		t.Fatalf("console echo = %q", echo)
	}
	if rtt <= 0 {
		t.Fatal("zero console rtt")
	}
}

func TestBlkSession(t *testing.T) {
	bs, err := fpgavirtio.OpenBlk(fpgavirtio.BlkConfig{Config: fpgavirtio.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if bs.CapacitySectors() != 2048 {
		t.Fatalf("capacity = %d", bs.CapacitySectors())
	}
	sector := bytes.Repeat([]byte{0x5a}, 512)
	if _, err := bs.WriteSector(9, sector); err != nil {
		t.Fatal(err)
	}
	if err := bs.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := bs.ReadSector(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sector) {
		t.Fatal("sector mismatch")
	}
}

// TestBlkSessionRejectsOutOfRange: reads and writes past the end of the
// device fail with an error, including a sector so large that
// sector+count wraps around, and the session keeps working after.
func TestBlkSessionRejectsOutOfRange(t *testing.T) {
	bs, err := fpgavirtio.OpenBlk(fpgavirtio.BlkConfig{Config: fpgavirtio.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	capacity := bs.CapacitySectors()
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
			if _, _, err := bs.ReadSectors(tc.sector, tc.count); err == nil {
				t.Error("ReadSectors succeeded")
			}
			if _, err := bs.WriteSectors(tc.sector, make([]byte, tc.count*512)); err == nil {
				t.Error("WriteSectors succeeded")
			}
			if tc.count != 1 {
				return
			}
			if _, _, err := bs.ReadSector(tc.sector); err == nil {
				t.Error("ReadSector succeeded")
			}
			if _, err := bs.WriteSector(tc.sector, make([]byte, 512)); err == nil {
				t.Error("WriteSector succeeded")
			}
		})
	}
	if _, _, err := bs.ReadSector(capacity - 1); err != nil {
		t.Fatalf("last sector unreadable after rejected requests: %v", err)
	}
}

// TestBypassCopyRejectsNonPositiveLength: a copy of fewer than one byte
// is an error, not an allocator panic.
func TestBypassCopyRejectsNonPositiveLength(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0} {
		if _, err := ns.BypassCopy(n); err == nil {
			t.Errorf("BypassCopy(%d) succeeded", n)
		}
	}
	if _, err := ns.BypassCopy(64); err != nil {
		t.Fatalf("BypassCopy(64) after rejected calls: %v", err)
	}
}

func TestGen3LinkFaster(t *testing.T) {
	measure := func(link fpgavirtio.Link) time.Duration {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 8, Quiet: true, Link: link}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := ns.PingDetailed(make([]byte, 1024))
		if err != nil {
			t.Fatal(err)
		}
		return s.Hardware
	}
	slow := measure(fpgavirtio.Gen2x2)
	fast := measure(fpgavirtio.Gen3x4)
	if fast >= slow {
		t.Fatalf("Gen3x4 hw time (%v) not faster than Gen2x2 (%v)", fast, slow)
	}
}

func TestEventIdxPingStillWorks(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:      fpgavirtio.Config{Seed: 9},
		UseEventIdx: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 300)
	for i := 0; i < 20; i++ {
		echo, _, err := ns.Ping(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("iteration %d: echo mismatch", i)
		}
	}
}

func TestEventIdxReducesBurstSignalling(t *testing.T) {
	burst := func(eventIdx bool) fpgavirtio.StreamResult {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config:      fpgavirtio.Config{Seed: 10, Quiet: true},
			UseEventIdx: eventIdx,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 32, PayloadSize: 128, Window: 32})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flags := burst(false)
	evidx := burst(true)
	if evidx.Doorbells >= flags.Doorbells {
		t.Errorf("EVENT_IDX doorbells %d >= flags %d", evidx.Doorbells, flags.Doorbells)
	}
	if evidx.Interrupts > flags.Interrupts {
		t.Errorf("EVENT_IDX interrupts %d > flags %d", evidx.Interrupts, flags.Interrupts)
	}
	if evidx.Elapsed <= 0 || flags.Elapsed <= 0 {
		t.Error("burst elapsed times must be positive")
	}
}

func TestPackedRingEndToEnd(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:        fpgavirtio.Config{Seed: 11},
		UsePackedRing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 400)
	for i := 0; i < 30; i++ {
		echo, _, err := ns.Ping(payload)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("iteration %d: echo mismatch", i)
		}
	}
	if res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 48, PayloadSize: 200, Window: 48}); err != nil || res.Elapsed <= 0 {
		t.Fatalf("packed burst: %+v err=%v", res, err)
	}
}

func TestPackedRingFasterHardware(t *testing.T) {
	measure := func(packed bool) time.Duration {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config:        fpgavirtio.Config{Seed: 12, Quiet: true},
			UsePackedRing: packed,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := ns.PingDetailed(make([]byte, 256))
		if err != nil {
			t.Fatal(err)
		}
		return s.Hardware
	}
	split := measure(false)
	packed := measure(true)
	// The packed format discovers chains with one read where the split
	// format needs an avail-index read, a slot read and per-descriptor
	// reads: hardware time must drop measurably.
	if packed >= split {
		t.Fatalf("packed hw %v not below split hw %v", packed, split)
	}
	if float64(packed) > 0.9*float64(split) {
		t.Fatalf("packed hw %v saved <10%% vs split %v", packed, split)
	}
}
