package fpgavirtio_test

import (
	"testing"

	fpgavirtio "fpgavirtio"
)

// The steady-state latency loop must not allocate per packet: every
// per-packet object (sim events, descriptor chains, payload staging,
// harvest slices, tokens) comes from session-owned pools and scratch
// buffers. These budgets are hard 0-allocs-per-packet ceilings; a
// regression here shows up long before it is visible in wall-clock.
//
// Methodology: the per-call overhead of a series (one app process, one
// trigger, warm-up growth of pools) is constant, so the MARGINAL cost
// of 1000 extra packets isolates the per-packet allocation count:
// allocs(warm batch of 1100) - allocs(warm batch of 100), over 1000.

const (
	allocSmallBatch = 100
	allocBigBatch   = 1100
	allocSpan       = allocBigBatch - allocSmallBatch
)

// marginalAllocsPerPacket reports the amortized allocation count of one
// additional packet once the session is warm.
func marginalAllocsPerPacket(t *testing.T, run func(n int)) float64 {
	t.Helper()
	run(allocBigBatch) // warm: grow every pool, scratch buffer, and ring
	small := testing.AllocsPerRun(3, func() { run(allocSmallBatch) })
	big := testing.AllocsPerRun(3, func() { run(allocBigBatch) })
	return (big - small) / float64(allocSpan)
}

func TestVirtIOPingSteadyStateZeroAlloc(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	perPkt := marginalAllocsPerPacket(t, func(n int) {
		if err := ns.PingSeries(buf, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perPkt > 0 {
		t.Fatalf("virtio ping allocates %.3f objects/packet in steady state, budget is 0", perPkt)
	}
}

func TestVirtIOPackedRingSteadyStateZeroAlloc(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:        fpgavirtio.Config{Seed: 1},
		UsePackedRing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	perPkt := marginalAllocsPerPacket(t, func(n int) {
		if err := ns.PingSeries(buf, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perPkt > 0 {
		t.Fatalf("packed-ring ping allocates %.3f objects/packet in steady state, budget is 0", perPkt)
	}
}

// The WaitC2HReady arm adds the user logic that raises a user
// interrupt after every H2C run, a delayed callback the engine queues
// once per packet.
func TestXDMARoundTripSteadyStateZeroAlloc(t *testing.T) {
	for _, arm := range []struct {
		name string
		cfg  fpgavirtio.XDMAConfig
	}{
		{"back-to-back", fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}}},
		{"wait-c2h-ready", fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}, WaitC2HReady: true}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			xs, err := fpgavirtio.OpenXDMA(arm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 256+54)
			perPkt := marginalAllocsPerPacket(t, func(n int) {
				if err := xs.RoundTripSeries(buf, n, nil); err != nil {
					t.Fatal(err)
				}
			})
			if perPkt > 0 {
				t.Fatalf("xdma round trip allocates %.3f objects/packet in steady state, budget is 0", perPkt)
			}
		})
	}
}

// The poll-mode datapaths hold to the same ceiling: the spin loop runs
// a pre-bound readiness closure per iteration (no per-spin or
// per-packet closures, no timer arming, no wait-queue churn), so
// busy-polling must be exactly as allocation-free as the interrupt
// path it replaces.

func TestVirtIOPollPingSteadyStateZeroAlloc(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1, PollMode: true}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	perPkt := marginalAllocsPerPacket(t, func(n int) {
		if err := ns.PingSeries(buf, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perPkt > 0 {
		t.Fatalf("virtio poll-mode ping allocates %.3f objects/packet in steady state, budget is 0", perPkt)
	}
}

func TestXDMAPollRoundTripSteadyStateZeroAlloc(t *testing.T) {
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1, PollMode: true}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256+54)
	perPkt := marginalAllocsPerPacket(t, func(n int) {
		if err := xs.RoundTripSeries(buf, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perPkt > 0 {
		t.Fatalf("xdma poll-mode round trip allocates %.3f objects/packet in steady state, budget is 0", perPkt)
	}
}

// The windowed stream holds to the same ceiling: the coalesce-timer
// process is prebuilt per queue and received payloads go back to the
// socket pool. The config is the benchmark's net-stream arm: packed
// ring, EVENT_IDX, kick and IRQ batching of 8, 2 queue pairs, window
// 32, 1024 B.
//
// With 32 packets overlapping, the session's pools (the process pool,
// the event free list, socket receive buffers, harvest scratch) keep
// reaching rare new high-water marks for several batches after the
// warm-up, each a one-off allocation. That growth is bounded by the
// window, not by the packet count, so the test takes the best of a few
// measurements: an allocation made per packet shows in every one.
func TestNetStreamSteadyStateZeroAlloc(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:          fpgavirtio.Config{Seed: 1},
		UsePackedRing:   true,
		UseEventIdx:     true,
		TxKickBatch:     8,
		IRQCoalescePkts: 8,
		QueuePairs:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		if _, err := ns.Stream(fpgavirtio.StreamConfig{Packets: n, PayloadSize: 1024, Window: 32}); err != nil {
			t.Fatal(err)
		}
	}
	perPkt := marginalAllocsPerPacket(t, run)
	for i := 1; i < 3 && perPkt > 0; i++ {
		perPkt = min(perPkt, marginalAllocsPerPacket(t, run))
	}
	if perPkt > 0 {
		t.Fatalf("windowed stream allocates %.3f objects/packet in steady state, budget is 0", perPkt)
	}
}
