package main

import (
	"fpgavirtio"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/telemetry"
)

// batchKind names the batch API a timed batch goes through.
type batchKind int

const (
	kindPing      batchKind = iota // NetSession.PingSeries
	kindRoundTrip                  // XDMASession.RoundTripSeries
	kindStream                     // NetSession.Stream
)

// spanName is the trace span recorded around a batch of this kind.
func (k batchKind) spanName() string {
	switch k {
	case kindRoundTrip:
		return "batch.roundtrip"
	case kindStream:
		return "batch.stream"
	default:
		return "batch.ping"
	}
}

// streamWindow is the in-flight window of the net-stream workload.
const streamWindow = 32

// workload is one closed-loop input set. A run opens a fixed number of
// boots of it; each boot opens fresh sessions from the seed and replays
// the same seeded batch plan, so every boot's first round is identical.
type workload struct {
	name string
	// why says which layers the workload loads and which it bypasses.
	why string
	// batches is the number of timed batches per round and batchPkts
	// the packets in each.
	batches, batchPkts int
	// group is the number of consecutive batches whose summed time is
	// one host-time sample: one of each payload size (and, on
	// poll-chaos, of each stack), so that a sample's cost does not
	// depend on which size or stack it carried. Rounds hold whole
	// groups.
	group int
	// fixedSize is the payload size of every batch; 0 cycles sizeCycle.
	fixedSize int
	// checks is the number of echo spot checks after a round's batches.
	checks int
	// kind says which API batch i goes through.
	kind func(i int) batchKind
	// net and xdma configure the sessions a round opens (nil: none).
	net  func(seed uint64) fpgavirtio.NetConfig
	xdma func(seed uint64) fpgavirtio.XDMAConfig
}

var workloads = []workload{
	{
		name:      "net-rtt",
		why:       "VirtIO-net echo, irq mode, window 1, split ring: the paper's Fig. 3 / Table I arm; loads netstack, virtio, vdev and hostos IRQ paths, bypasses the XDMA engines and xdmadrv",
		batches:   300,
		batchPkts: 80,
		group:     len(sizeCycle),
		checks:    5,
		kind:      func(int) batchKind { return kindPing },
		net: func(seed uint64) fpgavirtio.NetConfig {
			return fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: seed}}
		},
	},
	{
		name:      "xdma-rtt",
		why:       "XDMA char-device write/read, irq mode, window 1: the paper's vendor baseline; loads the XDMA engines, PCIe DMA reads and xdmadrv, bypasses netstack, virtio and vdev",
		batches:   150,
		batchPkts: 160,
		group:     len(sizeCycle),
		kind:      func(int) batchKind { return kindRoundTrip },
		xdma: func(seed uint64) fpgavirtio.XDMAConfig {
			return fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: seed}}
		},
	},
	{
		name:      "net-stream",
		why:       "VirtIO-net stream, window 32, packed ring, EVENT_IDX, kick and IRQ batching of 8, 2 queue pairs, 1024 B: deep event queue and batched signalling",
		batches:   40,
		batchPkts: 192,
		group:     1,
		fixedSize: 1024,
		checks:    5,
		kind:      func(int) batchKind { return kindStream },
		net: func(seed uint64) fpgavirtio.NetConfig {
			return fpgavirtio.NetConfig{
				Config:          fpgavirtio.Config{Seed: seed},
				UsePackedRing:   true,
				UseEventIdx:     true,
				TxKickBatch:     8,
				IRQCoalescePkts: 8,
				QueuePairs:      2,
			}
		},
	},
	{
		name:      "poll-chaos",
		why:       "both stacks busy-polling under the default chaos fault plan, alternating net and XDMA batches: loads the hostos spin loop, faults and driver recovery",
		batches:   240,
		batchPkts: 12,
		group:     2 * len(sizeCycle),
		checks:    5,
		// A cycle of payload sizes on the net stack, then one on XDMA.
		kind: func(i int) batchKind {
			if i/len(sizeCycle)%2 == 0 {
				return kindPing
			}
			return kindRoundTrip
		},
		net: func(seed uint64) fpgavirtio.NetConfig {
			return fpgavirtio.NetConfig{Config: chaosConfig(seed)}
		},
		xdma: func(seed uint64) fpgavirtio.XDMAConfig {
			return fpgavirtio.XDMAConfig{Config: chaosConfig(seed)}
		},
	},
}

func chaosConfig(seed uint64) fpgavirtio.Config {
	return fpgavirtio.Config{Seed: seed, PollMode: true, Faults: experiments.DefaultChaosPlan}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// recoveryCounters maps each fault class of the chaos plan to the
// registry counters that record its recovery, per stack: a class that
// fires in a session must move one of them there.
var recoveryCounters = map[string][]string{
	"needsreset": {telemetry.MetricRecoveryVirtioResets},
	"engineerr":  {telemetry.MetricRecoveryXDMAResets},
	"irqdrop":    {telemetry.MetricRecoveryVirtioWatchd, telemetry.MetricRecoveryXDMAWatchdog},
	"cplpoison":  {telemetry.MetricRecoveryMMIORetries},
}
