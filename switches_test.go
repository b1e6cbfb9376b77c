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

// netStreamSwitches streams through the net-stream workload's
// configuration: packed ring, EVENT_IDX, kick and IRQ batching of 8, two
// queue pairs, window 32, every packet 1024 B whatever size the cycle
// names.
func netStreamSwitches(t *testing.T, cfg fpgavirtio.Config) int64 {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:          cfg,
		UsePackedRing:   true,
		UseEventIdx:     true,
		TxKickBatch:     8,
		IRQCoalescePkts: 8,
		QueuePairs:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return switchesPerPacket(t, ns.SimSwitches, func(_, n int) error {
		_, err := ns.Stream(fpgavirtio.StreamConfig{Packets: n, PayloadSize: 1024, Window: 32})
		return err
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
// when a completion is visible or a yield hook needs it. A wake of a
// process not on the switch stack switches into it from the waker, so
// the device's TX queue engine and net user logic, which wake each
// other above the application process, pay one switch per wake instead
// of two. That took net irq from 33.942 to 19.342 switch-ins per
// packet, net poll under the chaos plan from 39.78 to 26.48 and the
// net-stream configuration from 65.84 to 50.51. XDMA's counts did not
// move and must not.
func TestSwitchesPerPacket(t *testing.T) {
	chaos := fpgavirtio.Config{Seed: 3, PollMode: true, Faults: experiments.DefaultChaosPlan}
	irq := fpgavirtio.Config{Seed: 3}
	for _, c := range []struct {
		name    string
		got     int64
		max     int64 // per switchPackets packets
		exactly bool
	}{
		{"net poll", netSwitches(t, chaos), 27 * switchPackets, false},
		{"net stream", netStreamSwitches(t, irq), 51 * switchPackets, false},
		{"xdma poll", xdmaSwitches(t, chaos), 6 * switchPackets, false},
		{"net irq", netSwitches(t, irq), 19342, true},
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
