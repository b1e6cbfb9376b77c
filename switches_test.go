package fpgavirtio_test

import (
	"runtime"
	"strings"
	"testing"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/experiments"
)

// switchSizes is the payload cycle the switch counts run over.
var switchSizes = []int{64, 128, 256, 512, 1024}

// switchPackets is the number of packets the switch counts run over.
const switchPackets = 200 * 5

// hostCounters are the host-cost diagnostics a session exposes to
// tests (export_test.go).
type hostCounters interface {
	SimSwitches() int64
	HazardComputes() int64
}

// switches reads a session's coroutine switch-ins.
func switches(c hostCounters) int64 { return c.SimSwitches() }

// countPerRound warms a session up with one pass over switchSizes,
// then reports how much counter grows over switchPackets packets,
// switchPackets/len(switchSizes) of each size. run sends n packets of
// the given payload size.
func countPerRound(t *testing.T, counter func() int64, run func(size, n int) error) int64 {
	t.Helper()
	n := switchPackets / len(switchSizes)
	for _, size := range switchSizes {
		if err := run(size, 20); err != nil {
			t.Fatal(err)
		}
	}
	before := counter()
	for _, size := range switchSizes {
		if err := run(size, n); err != nil {
			t.Fatal(err)
		}
	}
	return counter() - before
}

func netCount(t *testing.T, cfg fpgavirtio.Config, read func(hostCounters) int64) int64 {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return countPerRound(t, func() int64 { return read(ns) }, func(size, n int) error {
		return ns.PingSeries(make([]byte, size), n, nil)
	})
}

// netStreamCount streams through the net-stream workload's
// configuration: packed ring, EVENT_IDX, kick and IRQ batching of 8, two
// queue pairs, window 32, every packet 1024 B whatever size the cycle
// names.
func netStreamCount(t *testing.T, cfg fpgavirtio.Config, read func(hostCounters) int64) int64 {
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
	return countPerRound(t, func() int64 { return read(ns) }, func(_, n int) error {
		_, err := ns.Stream(fpgavirtio.StreamConfig{Packets: n, PayloadSize: 1024, Window: 32})
		return err
	})
}

func xdmaCount(t *testing.T, cfg fpgavirtio.Config, read func(hostCounters) int64) int64 {
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return countPerRound(t, func() int64 { return read(xs) }, func(size, n int) error {
		return xs.RoundTripSeries(make([]byte, size), n, nil)
	})
}

// coroutines counts the goroutines that back live iter.Pull
// coroutines: the only goroutines a session starts. Counting them,
// rather than every goroutine, keeps the count steady while goroutines
// of earlier tests exit.
func coroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "\ncreated by iter.Pull[")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSessionGoroutines pins the goroutines an open session holds
// after some traffic: 20 net and 20 XDMA sessions, none closed. The
// device engines, the net user logic, the coalesce timers and the
// interrupt handlers are step processes, which hold none, so each
// session holds only the pooled coroutine its boot and application
// processes share. Before they were step processes a net session held
// 5 (boot and application, the ISR, the TX and control queue engines,
// the user logic) and an XDMA session 4 (application, one ISR, the two
// SGDMA engines).
func TestSessionGoroutines(t *testing.T) {
	const sessions = 20
	var open []any
	for _, c := range []struct {
		name string
		open func() (any, error)
	}{
		{"net", func() (any, error) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{})
			if err == nil {
				err = ns.PingSeries(make([]byte, 64), 10, nil)
			}
			return ns, err
		}},
		{"xdma", func() (any, error) {
			xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{})
			if err == nil {
				err = xs.RoundTripSeries(make([]byte, 64), 10, nil)
			}
			return xs, err
		}},
	} {
		before := coroutines()
		for i := 0; i < sessions; i++ {
			s, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, s)
		}
		if got := coroutines() - before; got != sessions {
			t.Errorf("%d %s sessions hold %d goroutines, want %d", sessions, c.name, got, sessions)
		}
	}
	runtime.KeepAlive(open)
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
// net-stream configuration from 65.84 to 50.51. Card-side DMA transfers
// run as SleepSteps continuations (xdmaip's movers), so a fabric process
// is switched into once per port transfer instead of once per MPS
// chunk's wait. That took net irq from 19.342 to 9.605, net-stream from
// 50.51 to 14.741, net poll under the chaos plan from 26.48 to 13.126
// and XDMA poll from 5.77 to 5.567; XDMA irq did not move. The XDMA
// SGDMA engines run as SleepSteps step machines that never end, so an
// engine process is not switched into after boot: that took XDMA irq
// from 6.005 to 2.005, the two per-IRQ ISR spawns left, and XDMA poll
// under the chaos plan from 5.567 to 0.005. The net arms did not move.
// The VirtIO controller's queue engines, its deliveries and the net
// user logic run as SleepSteps step machines too, their ring ops as
// cursors over port transfers driven inline, so none of those processes
// is switched into after boot: that took net irq from 9.605 to 1.005,
// the ISR spawn and the application, net poll under the chaos plan from
// 13.126 to 0.009 and the net-stream configuration from 14.741 to
// 6.456, the ISR and coalesce-timer spawns left. Interrupt handlers
// and coalesce timers run as step processes, with no coroutine, and
// the RX NAPI poll runs inline in the RX interrupt's step: that took
// XDMA irq from 2.005 to 0.005, net irq from 1.005 to 0.005, the
// net-stream configuration from 6.456 to 0.005 and net poll under the
// chaos plan from 0.009 to 0.005. What is left is one switch into the
// application process per series.
func TestSwitchesPerPacket(t *testing.T) {
	chaos := fpgavirtio.Config{Seed: 3, PollMode: true, Faults: experiments.DefaultChaosPlan}
	irq := fpgavirtio.Config{Seed: 3}
	for _, c := range []struct {
		name    string
		got     int64
		max     int64 // per switchPackets packets
		exactly bool
	}{
		{"net poll", netCount(t, chaos, switches), switchPackets / 10, false},
		{"net stream", netStreamCount(t, irq, switches), switchPackets, false},
		{"xdma poll", xdmaCount(t, chaos, switches), 1 * switchPackets, false},
		{"net irq", netCount(t, irq, switches), 5, true},
		{"xdma irq", xdmaCount(t, irq, switches), 5, true},
	} {
		t.Logf("%s: %.3f switch-ins per packet", c.name, float64(c.got)/switchPackets)
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

// TestHazardTableSteadyState checks that after the warm-up round a
// session's host computes no preemption hazard: every segment length
// the net irq, XDMA irq, net busy-poll under the chaos plan and
// net-stream configurations charge fits the host's hazard table.
func TestHazardTableSteadyState(t *testing.T) {
	hazards := func(c hostCounters) int64 { return c.HazardComputes() }
	chaos := fpgavirtio.Config{Seed: 3, PollMode: true, Faults: experiments.DefaultChaosPlan}
	irq := fpgavirtio.Config{Seed: 3}
	for _, c := range []struct {
		name string
		got  int64
	}{
		{"net irq", netCount(t, irq, hazards)},
		{"xdma irq", xdmaCount(t, irq, hazards)},
		{"net poll chaos", netCount(t, chaos, hazards)},
		{"net stream", netStreamCount(t, irq, hazards)},
	} {
		if c.got != 0 {
			t.Errorf("%s: %d preemption hazards computed over %d packets after warm-up, want 0", c.name, c.got, switchPackets)
		}
	}
}
