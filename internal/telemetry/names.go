package telemetry

// Canonical metric names. Every Registry instrument in the tree must be
// created through one of these constants (or one of the Metric* helpers
// below for per-instance families) so that dashboards, replay baselines
// and experiment scripts can rely on a single spelling. Names follow a
// `layer.subsystem.metric` shape: dot-separated lower-case segments with
// the owning layer first. The `fvlint` metricname analyzer enforces use
// of this file at lint time; TestMetricNameShape enforces the shape.
//
// The string values are frozen: replay baselines assert byte-identical
// metric dumps, so renaming a constant's value is a breaking change.
const (
	// Application-level streaming benchmark (stream.go).
	MetricStreamPackets       = "stream.packets"
	MetricStreamBackpressure  = "stream.backpressure"
	MetricStreamDrops         = "stream.drops"
	MetricStreamWindow        = "stream.window"
	MetricStreamPPS           = "stream.pps"
	MetricStreamGoodputBps    = "stream.goodput_bps"
	MetricStreamOccupancyMax  = "stream.occupancy.max"
	MetricStreamOccupancyMean = "stream.occupancy.mean"
	MetricStreamDoorbells     = "stream.doorbells"
	MetricStreamInterrupts    = "stream.interrupts"

	// Host OS model (internal/hostos).
	MetricHostSyscalls      = "hostos.syscalls"
	MetricHostPreemptions   = "hostos.preemptions"
	MetricHostPreemptNs     = "hostos.preempt.ns"
	MetricHostJitterNs      = "hostos.jitter.injected.ns"
	MetricHostWakeups       = "hostos.wakeups"
	MetricHostWakeTailHits  = "hostos.waketail.hits"
	MetricHostIRQsDelivered = "hostos.irqs.delivered"
	MetricHostWakeLatencyNs = "hostos.wake.latency.ns"

	// PCIe link and root complex (internal/pcie).
	MetricPCIeDownBytes  = "pcie.down.bytes"
	MetricPCIeUpBytes    = "pcie.up.bytes"
	MetricPCIeMSIXRaised = "pcie.msix.raised"
	MetricPCIeCplErrors  = "pcie.completion.errors"

	// Fault injection and driver recovery (internal/faults plus the
	// recovery paths in both driver stacks).
	MetricFaultsInjected        = "fault.injected.total"
	MetricRecoveryVirtioResets  = "recovery.virtio.resets"
	MetricRecoveryVirtioWatchd  = "recovery.virtio.watchdog"
	MetricRecoveryVirtioRequeue = "recovery.virtio.requeued"
	MetricRecoveryMMIORetries   = "recovery.mmio.retries"
	MetricRecoveryXDMAResets    = "recovery.xdma.resets"
	MetricRecoveryXDMAWatchdog  = "recovery.xdma.watchdog"
	MetricRecoveryXDMAResubmits = "recovery.xdma.resubmits"

	// In-sim network stack (internal/netstack).
	MetricNetstackTxPackets = "netstack.tx.packets"
	MetricNetstackRxPackets = "netstack.rx.packets"
	MetricNetstackRxDropped = "netstack.rx.dropped"
	MetricNetstackARPHits   = "netstack.arp.hits"
	MetricNetstackARPMisses = "netstack.arp.misses"
	MetricNetstackCsumBytes = "netstack.csum.sw.bytes"

	// VirtIO transport driver (internal/drivers/virtiopci).
	MetricVirtioDoorbells      = "driver.virtio.doorbells"
	MetricVirtioKicksElided    = "driver.virtio.kicks.elided"
	MetricVirtioDescsPosted    = "driver.virtio.desc.posted"
	MetricVirtioDescsCompleted = "driver.virtio.desc.completed"

	// virtio-net driver (internal/drivers/virtionet).
	MetricVirtionetTxPackets = "driver.virtionet.tx.packets"
	MetricVirtionetRxPackets = "driver.virtionet.rx.packets"
	MetricVirtionetRxIRQs    = "driver.virtionet.rx.irqs"
	// rx.len_errors counts RX completions whose device-written used
	// length does not fit the posted buffer (registered on first use).
	MetricVirtionetRxLenErrors = "driver.virtionet.rx.len_errors"

	// virtio-console driver (internal/drivers/virtioconsole).
	MetricVirtioconsoleTxBytes = "driver.virtioconsole.tx.bytes"
	MetricVirtioconsoleRxBytes = "driver.virtioconsole.rx.bytes"

	// virtio-blk driver (internal/drivers/virtioblk).
	MetricVirtioblkRequests = "driver.virtioblk.requests"

	// XDMA memory port (internal/xdmaip).
	MetricDMAPortReads      = "dma-engine.port.reads"
	MetricDMAPortWrites     = "dma-engine.port.writes"
	MetricDMAPortReadBytes  = "dma-engine.port.read.bytes"
	MetricDMAPortWriteBytes = "dma-engine.port.write.bytes"

	// VirtIO device model (internal/vdev).
	MetricVdevNotifies       = "virtio-device.notifies"
	MetricVdevChainsServiced = "virtio-device.chains.serviced"
	MetricVdevIRQsRaised     = "virtio-device.interrupts.raised"
	MetricVdevIRQsSuppressed = "virtio-device.interrupts.suppressed"
	MetricVdevIRQsCoalesced  = "virtio-device.interrupts.coalesced"

	// Tail-latency attribution: per-sample RTT decomposition recorded
	// into HDR histograms by both session types (netsession.go,
	// xdmasession.go), so percentile estimates stay trustworthy at
	// sweep scale without retaining every sample.
	MetricTailRTTTotalNs = "tail.rtt.total.ns"
	MetricTailRTTSWNs    = "tail.rtt.sw.ns"
	MetricTailRTTHWNs    = "tail.rtt.hw.ns"
	MetricTailRTTRGNs    = "tail.rtt.rg.ns"

	// Busy-poll datapaths (internal/hostos poll.go): spin-loop
	// accounting for the poll-mode drivers. wasted counts empty
	// iterations (a proxy for burned cycles with no work to show),
	// cpu.burn.ns is the modeled CPU time the spin loops consumed —
	// the currency of the latency-vs-CPU trade study.
	MetricPollSpins  = "poll.spins"
	MetricPollWasted = "poll.wasted"
	MetricPollYields = "poll.yields"
	MetricPollBurnNs = "poll.cpu.burn.ns"

	// Flight recorder (internal/telemetry/flight.go): the always-on
	// bounded span ring each session installs at boot and the
	// post-mortem dumps it takes on fault recoveries and new
	// worst-case samples.
	MetricRecorderSpansCaptured = "recorder.spans.captured"
	MetricRecorderSpansDropped  = "recorder.spans.dropped"
	MetricRecorderDumps         = "recorder.dumps"
	MetricRecorderDumpsDropped  = "recorder.dumps.dropped"

	// Event-loop introspection (internal/sim): scheduler load mirrored
	// from sim.QueueStats after each run, so event counts and queue
	// pressure show up next to the driver metrics in `fvbench -metrics`
	// and on the Prometheus endpoint. depth.max is the high-water mark
	// of live queued events over the session's life.
	MetricSimEventsScheduled = "sim.events.scheduled"
	MetricSimEventsFired     = "sim.events.fired"
	MetricSimEventsCancelled = "sim.events.cancelled"
	MetricSimQueueDepthMax   = "sim.queue.depth.max"
)

// Per-instance metric families. The helpers keep the dynamic part (a
// TLP kind, a channel direction, an engine name) out of the frozen
// constant table while still funnelling every name through this file.

// MetricPCIeDownTLP names the per-kind downstream TLP counter.
func MetricPCIeDownTLP(kind string) string { return "pcie.down.tlp." + kind }

// MetricPCIeUpTLP names the per-kind upstream TLP counter.
func MetricPCIeUpTLP(kind string) string { return "pcie.up.tlp." + kind }

// MetricXDMATransfers names the per-direction XDMA transfer counter.
func MetricXDMATransfers(dir string) string { return "driver.xdma." + dir + ".transfers" }

// MetricXDMABytes names the per-direction XDMA byte counter.
func MetricXDMABytes(dir string) string { return "driver.xdma." + dir + ".bytes" }

// MetricXDMAIRQs names the per-direction XDMA interrupt counter.
func MetricXDMAIRQs(dir string) string { return "driver.xdma." + dir + ".irqs" }

// MetricDMAEngineRuns names a DMA engine's run counter.
func MetricDMAEngineRuns(name string) string { return "dma-engine." + name + ".runs" }

// MetricDMAEngineDescriptors names a DMA engine's descriptor counter.
func MetricDMAEngineDescriptors(name string) string { return "dma-engine." + name + ".descriptors" }

// MetricDMAEngineBytes names a DMA engine's payload byte counter.
func MetricDMAEngineBytes(name string) string { return "dma-engine." + name + ".bytes" }

// MetricFaultInjected names the per-class fault injection counter.
func MetricFaultInjected(class string) string { return "fault." + class + ".injected" }
