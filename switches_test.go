package fpgavirtio_test

import (
	"testing"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/experiments"
)

// switchSizes is the payload cycle the switch counts run over.
var switchSizes = []int{64, 128, 256, 512, 1024}

// switchPackets is the number of packets the switch counts run over.
const switchPackets = 200 * 5

// switchesPerPacket warms a session up with one pass over switchSizes,
// then reports its coroutine switch-ins over switchPackets packets,
// switchPackets/len(switchSizes) of each size. run sends n packets of
// the given payload size.
func switchesPerPacket(t *testing.T, switches func() int64, run func(size, n int) error) int64 {
	t.Helper()
	n := switchPackets / len(switchSizes)
	for _, size := range switchSizes {
		if err := run(size, 20); err != nil {
			t.Fatal(err)
		}
	}
	before := switches()
	for _, size := range switchSizes {
		if err := run(size, n); err != nil {
			t.Fatal(err)
		}
	}
	return switches() - before
}

func netSwitches(t *testing.T, cfg fpgavirtio.Config) int64 {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return switchesPerPacket(t, ns.SimSwitches, func(size, n int) error {
		return ns.PingSeries(make([]byte, size), n, nil)
	})
}

func xdmaSwitches(t *testing.T, cfg fpgavirtio.Config) int64 {
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return switchesPerPacket(t, xs.SimSwitches, func(size, n int) error {
		return xs.RoundTripSeries(make([]byte, size), n, nil)
	})
}

// TestSwitchesPerPacket bounds the coroutine switch-ins per packet at
// seed 3. Busy-poll spin iterations run on the wake that ends their
// sleep, so a poll-mode packet switches into the spinning process only
// when a completion is visible or a yield hook needs it. Under the
// chaos plan that took net poll from 69.19 to 39.78 switch-ins per
// packet and XDMA poll from 32.18 to 5.77. The interrupt paths never
// spin, and their counts must not move.
func TestSwitchesPerPacket(t *testing.T) {
	chaos := fpgavirtio.Config{Seed: 3, PollMode: true, Faults: experiments.DefaultChaosPlan}
	irq := fpgavirtio.Config{Seed: 3}
	for _, c := range []struct {
		name    string
		got     int64
		max     int64 // per switchPackets packets
		exactly bool
	}{
		{"net poll", netSwitches(t, chaos), 41 * switchPackets, false},
		{"xdma poll", xdmaSwitches(t, chaos), 6 * switchPackets, false},
		{"net irq", netSwitches(t, irq), 33942, true},
		{"xdma irq", xdmaSwitches(t, irq), 6005, true},
	} {
		if c.got > c.max || c.exactly && c.got != c.max {
			want := "at most"
			if c.exactly {
				want = "exactly"
			}
			t.Errorf("%s: %.3f switch-ins per packet, want %s %.3f", c.name,
				float64(c.got)/switchPackets, want, float64(c.max)/switchPackets)
		}
	}
}
