// Package virtionet is the virtio-net front-end driver: it binds a
// VirtIO network function through the virtio-pci transport, registers
// as a NIC with the host network stack, and implements the TX
// (doorbell) and RX (interrupt + NAPI poll) paths with the kernel
// driver's structure. The FPGA appears to the host as an ordinary
// network interface — the semantic benefit the paper highlights in
// §IV-B.
package virtionet

import (
	"fmt"

	"fpgavirtio/internal/drivers/virtiopci"
	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// queueCtrl is the control queue's index on a single-queue-pair
// virtio-net device (receiveq 0, transmitq 1). With VIRTIO_NET_F_MQ the
// pairs interleave (receiveqN = 2(N-1), transmitqN = 2N-1) and the
// control queue follows the last pair.
const queueCtrl = 2

// Driver CPU costs specific to the net front-end.
const (
	xmitPathCost   = sim.Duration(350) * sim.Nanosecond // start_xmit bookkeeping
	irqBodyCost    = sim.Duration(250) * sim.Nanosecond // vring_interrupt
	napiPerPktCost = sim.Duration(380) * sim.Nanosecond // receive_buf + skb build
	refillCost     = sim.Duration(150) * sim.Nanosecond // try_fill_recv per buffer
)

// Completion-watchdog tuning. The watchdog process only exists when the
// endpoint has a fault injector armed; the zero-fault simulation runs
// no watchdog at all.
const (
	// watchdogPeriod is the poll interval of the recovery watchdog.
	watchdogPeriod = sim.Duration(50) * sim.Microsecond
	// watchdogStrikes is how many consecutive stuck observations a queue
	// needs before the watchdog intervenes — one tick of grace so a
	// poll that is merely scheduled-but-not-run is not misdiagnosed.
	watchdogStrikes = 2
)

// Options controls bring-up.
type Options struct {
	Name string
	// WantCsum asks for NET_F_CSUM/GUEST_CSUM if the device offers it.
	WantCsum bool
	// WantCtrlVQ asks for the control virtqueue.
	WantCtrlVQ bool
	// RXBuffers is the number of pre-posted receive buffers (default 64).
	RXBuffers int
	// QueueSize overrides the ring size (default: device maximum).
	QueueSize int
	// SuppressTxInterrupts mirrors the kernel's TX-completion strategy:
	// reclaim on the next transmit rather than per-packet interrupts.
	// On by default via DefaultOptions.
	SuppressTxInterrupts bool
	// WantEventIdx negotiates VIRTIO_F_RING_EVENT_IDX when offered.
	WantEventIdx bool
	// WantPacked negotiates VIRTIO_F_RING_PACKED when offered.
	WantPacked bool
	// QueuePairs requests that many RX/TX queue pairs (default 1),
	// capped by the device's max_virtqueue_pairs; more than one pair
	// requires the control queue for VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET.
	// Transmits spread round-robin across the active pairs.
	QueuePairs int
	// TxKickBatch defers the TX doorbell until that many packets have
	// been queued since the last kick (FlushTx forces the pending one)
	// — the driver-side descriptor batching used by windowed streaming.
	// 0 or 1 keeps the kick-per-packet policy.
	TxKickBatch int
	// ForceKicks disables every doorbell elision (device hints, event
	// thresholds, batching): one doorbell per ring update. This is the
	// suppression-off arm of the throughput comparison.
	ForceKicks bool
	// PollMode runs the datapath without interrupts: every queue
	// interrupt stays suppressed and completions are discovered by
	// spinning on the used rings from the consuming process's context
	// (BusyPoll / the internal spin helpers). EVENT_IDX is rejected —
	// the poll loop never arms a notification threshold.
	PollMode bool

	// blocking, set only by tests, replaces the step-form interrupt
	// handlers and RX drain with the blocking bodies they are checked
	// against.
	blocking *blockingPaths
}

// blockingPaths are the blocking interrupt handlers and RX drains a
// test runs in place of the step forms.
type blockingPaths struct {
	rxIRQ, txIRQ func(d *Device, p *sim.Proc, pq *pairQueues)
	ctrlIRQ      func(d *Device, p *sim.Proc)
	napiPoll     func(d *Device, p *sim.Proc, pq *pairQueues)
	busyDrain    func(d *Device, p *sim.Proc, pq *pairQueues) int
}

// DefaultOptions matches the paper's test configuration.
func DefaultOptions(name string) Options {
	return Options{Name: name, WantCsum: true, WantCtrlVQ: true, RXBuffers: 64, SuppressTxInterrupts: true}
}

// pairQueues is the driver state of one RX/TX queue pair.
type pairQueues struct {
	rx, tx *virtiopci.VQ
	txBufs []mem.Addr
	txFree []int
	txWQ   *hostos.WaitQueue
	// unkicked counts packets queued since the last TX doorbell under
	// the TxKickBatch policy.
	unkicked int

	// txTokens holds the pre-boxed txToken for each transmit buffer, so
	// the per-packet AddChain does not re-box the token interface.
	txTokens []any
	// txInFlight / txLen track which transmit buffers are exposed to the
	// device and how long each posted frame is — the requeue set a device
	// reset must resubmit. txInFlight doubles as the double-complete
	// invariant's state.
	txInFlight []bool
	txLen      []int
	// rxAddrs remembers every receive buffer ever posted, so a reset can
	// repost the full set into the rebuilt ring.
	rxAddrs []mem.Addr
	// polling is the single-flight latch of the RX drain: the watchdog's
	// rescue poll must not interleave with an interrupt-driven poll.
	polling bool
	// poll is the pair's RX drain.
	poll *rxPoll
	// Watchdog strike counters (see watchdogStrikes).
	rxStrikes, txStrikes int
	lastInFlight         int
	// txUsed / rxUsed / irqUsed are harvest scratch. IRQ-context reclaim
	// (txIRQ) gets its own buffer because it can preempt a process-
	// context reclaim at a CPU-cost yield; reclaiming asserts that two
	// process-context reclaims never overlap on one pair.
	txUsed, rxUsed, irqUsed []virtio.Used
	reclaiming              bool
	// rxBuf stages one received buffer's bytes out of host memory.
	rxBuf []byte
	// txHasUsed / reclaimed are the poll-mode TX-reclaim spin probe and
	// predicate, bound once at probe (nil outside poll mode).
	txHasUsed func() bool
	reclaimed func(p *sim.Proc) bool
}

// reclaimTx drains TX completions into the pair's scratch and returns
// freed buffer indices to the free list, reporting how many it freed.
// The scratch makes this single-flight per pair: process context and
// the (suppressed by default) TX IRQ must not overlap here.
func (pq *pairQueues) reclaimTx(p *sim.Proc) int {
	if fvassert.Enabled {
		if pq.reclaiming {
			fvassert.Failf("virtionet: concurrent TX reclaim on one queue pair")
		}
		pq.reclaiming = true
	}
	used := pq.tx.HarvestInto(p, pq.txUsed)
	for _, u := range used {
		idx := u.Token.(txToken).idx
		if fvassert.Enabled && !pq.txInFlight[idx] {
			fvassert.Failf("virtionet: TX completion for buffer %d that is not in flight", idx)
		}
		pq.txInFlight[idx] = false
		pq.txFree = append(pq.txFree, idx)
	}
	pq.txUsed = used[:0]
	if fvassert.Enabled {
		pq.reclaiming = false
	}
	return len(used)
}

// Device is a bound virtio-net interface; it implements netstack.NIC.
type Device struct {
	tr    *virtiopci.Transport
	host  *hostos.Host
	stack *netstack.Stack
	opt   Options

	mac      netstack.MAC
	mtu      uint16
	offloads netstack.Offloads

	pairs  []*pairQueues
	txNext int
	ctrlq  *virtiopci.VQ

	rxBufSize int
	ctrlWQ    *hostos.WaitQueue

	txPkts, rxPkts, rxIRQs *telemetry.Counter
	spans                  struct{ xmit, napi, busypoll, reset sim.SpanKind }
	// rxLenErrs counts RX completions dropped for a used length outside
	// the posted buffer. It is registered on the first such drop, so a
	// well-behaved device leaves the metric snapshot unchanged.
	rxLenErrs *telemetry.Counter

	// spinner executes PollMode's busy loops under the host's poll
	// cost model; nil outside poll mode. ctrlHasUsed and pollYield are
	// the control-queue spin probe and the spin loops' yield hook,
	// bound once at probe.
	spinner     *hostos.Spinner
	ctrlHasUsed func() bool
	pollYield   func(p *sim.Proc)

	// Recovery state. want/qsize/maxPairs are the bring-up parameters a
	// device reset must replay; resetting gates every IRQ path while the
	// rings are being rebuilt. The rec* counters are registered only when
	// the endpoint has a fault injector armed.
	want      virtio.Feature
	qsize     int
	maxPairs  int
	resetting bool

	recResets, recWatchdog, recRequeued *telemetry.Counter

	// hdrBuf stages the virtio-net header encode; it is filled and
	// written to host memory in one runnable interval, so sharing it
	// across queue pairs is safe under the cooperative scheduler.
	hdrBuf [virtio.NetHdrSize]byte
}

// rxToken records one posted receive buffer.
type rxToken struct {
	addr mem.Addr
	idx  int
}

// txToken records one in-flight transmit buffer.
type txToken struct{ idx int }

// Probe binds the driver to an enumerated device and brings the
// interface up: feature negotiation, ring setup, RX buffer posting,
// IRQ registration, DRIVER_OK, and (with MQ) pair activation.
func Probe(p *sim.Proc, h *hostos.Host, stack *netstack.Stack, info *pcie.DeviceInfo, opt Options) (*Device, error) {
	if opt.RXBuffers == 0 {
		opt.RXBuffers = 64
	}
	if opt.Name == "" {
		opt.Name = "eth-virtio"
	}
	if opt.PollMode && opt.WantEventIdx {
		return nil, fmt.Errorf("virtionet: poll mode disables EVENT_IDX (no notification thresholds are armed)")
	}
	tr, err := virtiopci.Probe(p, h, info)
	if err != nil {
		return nil, err
	}
	if info.DeviceID != virtio.DeviceNet.PCIDeviceID() {
		return nil, fmt.Errorf("virtionet: not a net device: %#x", info.DeviceID)
	}
	reg := h.Metrics()
	d := &Device{
		tr:     tr,
		host:   h,
		stack:  stack,
		opt:    opt,
		ctrlWQ: h.NewWaitQueue(opt.Name + ".ctrl"),
		txPkts: reg.Counter(telemetry.MetricVirtionetTxPackets),
		rxPkts: reg.Counter(telemetry.MetricVirtionetRxPackets),
		rxIRQs: reg.Counter(telemetry.MetricVirtionetRxIRQs),
	}
	d.spans.xmit = h.Sim.SpanKind(telemetry.LayerDriver, "", "virtionet.xmit")
	d.spans.napi = h.Sim.SpanKind(telemetry.LayerDriver, "", "virtionet.napi")
	d.spans.busypoll = h.Sim.SpanKind(telemetry.LayerDriver, "", "virtionet.busypoll")
	d.spans.reset = h.Sim.SpanKind(telemetry.LayerDriver, "", "virtionet.reset")
	if opt.PollMode {
		d.spinner = h.NewSpinner()
		// Reads d.ctrlq at each call: a reset rebuilds the queue.
		d.ctrlHasUsed = func() bool { return d.ctrlq.HasUsed() }
		d.pollYield = d.PollYield
	}

	// MQ is always requested; Negotiate intersects with the device
	// offer, so the bit survives only on multi-pair devices — which is
	// also how the driver learns the control queue moved past the pairs.
	want := virtio.NetFMAC | virtio.NetFMTU | virtio.NetFStatus | virtio.NetFMQ
	if opt.WantCsum {
		want |= virtio.NetFCsum | virtio.NetFGuestCsum
	}
	if opt.WantCtrlVQ {
		want |= virtio.NetFCtrlVQ
	}
	if opt.WantEventIdx {
		want |= virtio.FRingEventIdx
	}
	if opt.WantPacked {
		want |= virtio.FRingPacked
	}
	d.want = want
	feats, err := tr.Negotiate(p, want)
	if err != nil {
		return nil, err
	}
	d.offloads = netstack.Offloads{
		TxCsum: feats.Has(virtio.NetFCsum),
		RxCsum: feats.Has(virtio.NetFGuestCsum),
	}

	cfg := tr.ReadDeviceConfig(p, virtio.NetCfgMAC, virtio.NetCfgLen)
	copy(d.mac[:], cfg[virtio.NetCfgMAC:])
	d.mtu = uint16(cfg[virtio.NetCfgMTU]) | uint16(cfg[virtio.NetCfgMTU+1])<<8
	d.rxBufSize = virtio.NetHdrSize + netstack.EthHdrSize + int(d.mtu) + 64

	maxPairs := 1
	if feats.Has(virtio.NetFMQ) {
		maxPairs = int(cfg[virtio.NetCfgMaxVQP]) | int(cfg[virtio.NetCfgMaxVQP+1])<<8
		if maxPairs < 1 {
			maxPairs = 1
		}
	}
	pairs := opt.QueuePairs
	if pairs <= 0 {
		pairs = 1
	}
	if pairs > maxPairs {
		pairs = maxPairs
	}
	if pairs > 1 && !feats.Has(virtio.NetFCtrlVQ) {
		return nil, fmt.Errorf("virtionet: %d queue pairs need the control queue", pairs)
	}
	d.maxPairs = maxPairs

	qsize := opt.QueueSize
	if qsize == 0 {
		qsize = 256
	}
	d.qsize = qsize
	for i := 0; i < pairs; i++ {
		pq := &pairQueues{txWQ: h.NewWaitQueue(fmt.Sprintf("%s.tx%d", opt.Name, i))}
		pq.poll = &rxPoll{d: d, pq: pq}
		pq.poll.step = pq.poll.run
		if opt.PollMode {
			pq.txHasUsed = func() bool { return pq.tx.HasUsed() }
			pq.reclaimed = func(p *sim.Proc) bool { return pq.reclaimTx(p) > 0 }
		}
		if pq.rx, err = tr.SetupQueue(p, virtio.NetRXQueue(i), qsize); err != nil {
			return nil, err
		}
		if pq.tx, err = tr.SetupQueue(p, virtio.NetTXQueue(i), qsize); err != nil {
			return nil, err
		}
		d.pairs = append(d.pairs, pq)
	}
	if feats.Has(virtio.NetFCtrlVQ) {
		ctrlIdx := queueCtrl
		if feats.Has(virtio.NetFMQ) {
			// The control queue sits after the device's full pair set,
			// not after the subset this driver activates.
			ctrlIdx = virtio.NetCtrlQueue(maxPairs)
		}
		if d.ctrlq, err = tr.SetupQueue(p, ctrlIdx, 16); err != nil {
			return nil, err
		}
		if b := opt.blocking; b != nil {
			d.ctrlq.RegisterIRQ(func(p *sim.Proc) { b.ctrlIRQ(d, p) })
		} else {
			d.ctrlq.RegisterIRQSteps(d.ctrlIRQ)
		}
		if opt.PollMode {
			d.ctrlq.SetNoInterrupt(true)
		}
	}
	for _, pq := range d.pairs {
		pq := pq
		if b := opt.blocking; b != nil {
			pq.rx.RegisterIRQ(func(p *sim.Proc) { b.rxIRQ(d, p, pq) })
			pq.tx.RegisterIRQ(func(p *sim.Proc) { b.txIRQ(d, p, pq) })
		} else {
			pq.rx.RegisterIRQSteps(func(irq *hostos.IRQ) sim.Duration { return d.rxIRQ(irq, pq) })
			pq.tx.RegisterIRQSteps(func(irq *hostos.IRQ) sim.Duration { return d.txIRQ(irq, pq) })
		}
		if opt.PollMode {
			// No IRQ arming: every queue interrupt stays suppressed for
			// the session's lifetime; the handlers registered above are
			// never reached (the device honors the suppression flags).
			pq.rx.SetNoInterrupt(true)
			pq.tx.SetNoInterrupt(true)
		} else if opt.SuppressTxInterrupts {
			pq.tx.SetNoInterrupt(true)
		}
	}

	// Pre-post receive buffers and kick once so the device knows.
	for _, pq := range d.pairs {
		for i := 0; i < opt.RXBuffers; i++ {
			addr := tr.AllocBuffer(d.rxBufSize)
			pq.rxAddrs = append(pq.rxAddrs, addr)
			if err := pq.rx.AddChain1(p, virtio.BufSeg{Addr: addr, Len: d.rxBufSize, DeviceWritten: true}, rxToken{addr: addr, idx: i}); err != nil {
				return nil, err
			}
		}
		pq.rx.Kick(p)
	}

	// Per-pair transmit buffer pools sized to the ring. Tokens are boxed
	// once here so the per-packet post reuses the interface values.
	for _, pq := range d.pairs {
		pq.txInFlight = make([]bool, qsize)
		pq.txLen = make([]int, qsize)
		for i := 0; i < qsize; i++ {
			pq.txBufs = append(pq.txBufs, tr.AllocBuffer(virtio.NetHdrSize+netstack.EthHdrSize+int(d.mtu)+64))
			pq.txFree = append(pq.txFree, i)
			pq.txTokens = append(pq.txTokens, txToken{idx: i})
		}
	}

	tr.DriverOK(p)
	if tr.EP.Faults() != nil {
		// Recovery machinery exists only under fault injection: the
		// config-change interrupt catches device-initiated NEEDS_RESET,
		// and the watchdog process catches lost completions and lost
		// interrupts. Started before the MQ activation command so a
		// fault on the very first control exchange is already rescued.
		d.recResets = reg.Counter(telemetry.MetricRecoveryVirtioResets)
		d.recWatchdog = reg.Counter(telemetry.MetricRecoveryVirtioWatchd)
		d.recRequeued = reg.Counter(telemetry.MetricRecoveryVirtioRequeue)
		if opt.PollMode {
			// Watchdog-less recovery: the config vector is claimed so a
			// NEEDS_RESET announcement is not a fatal unhandled IRQ, but
			// detection happens in the spin loops' yield slow path
			// (PollYield reads device status) — never from IRQ context,
			// and no watchdog process exists.
			h.RegisterIRQSteps(tr.EP, 0, func(*hostos.IRQ) sim.Duration { return 0 })
		} else {
			h.RegisterIRQ(tr.EP, 0, d.onConfigIRQ)
			h.Sim.Go(opt.Name+".watchdog", d.watchdog)
		}
	}
	if feats.Has(virtio.NetFMQ) {
		if err := d.ctrlCommand(p, virtio.NetCtrlMQ, virtio.NetCtrlMQPairs,
			[]byte{byte(pairs), byte(pairs >> 8)}); err != nil {
			return nil, fmt.Errorf("virtionet: VQ_PAIRS_SET: %w", err)
		}
	}
	return d, nil
}

// Name implements netstack.NIC.
func (d *Device) Name() string { return d.opt.Name }

// MAC implements netstack.NIC.
func (d *Device) MAC() netstack.MAC { return d.mac }

// MTU reports the device MTU from config space.
func (d *Device) MTU() uint16 { return d.mtu }

// Offloads implements netstack.NIC.
func (d *Device) Offloads() netstack.Offloads { return d.offloads }

// Transport exposes the underlying transport (examples and tests).
func (d *Device) Transport() *virtiopci.Transport { return d.tr }

// QueuePairs reports the number of active RX/TX queue pairs.
func (d *Device) QueuePairs() int { return len(d.pairs) }

// txQueue picks the transmit pair for the next packet (round-robin,
// the stand-in for the kernel's XPS mapping).
func (d *Device) txQueue() *pairQueues {
	pq := d.pairs[d.txNext%len(d.pairs)]
	d.txNext++
	return pq
}

// Xmit implements netstack.NIC: virtio-net's start_xmit. Completed
// transmissions are reclaimed here rather than by interrupt, matching
// the suppressed-TX-interrupt configuration.
func (d *Device) Xmit(p *sim.Proc, pkt netstack.TxPacket) error {
	sp := p.Sim().BeginSpan(d.spans.xmit)
	defer sp.End()
	d.host.CPUWork(p, xmitPathCost)
	pq := d.txQueue()
	// The queue is stopped while a device reset rebuilds the rings:
	// recoverReset requeues the batched chains and wakes every transmit
	// queue once it is done.
	for d.resetting {
		pq.txWQ.Wait(p)
	}

	// Reclaim finished TX chains (free_old_xmit_skbs).
	pq.reclaimTx(p)
	for len(pq.txFree) == 0 {
		if d.opt.PollMode {
			// Ring full under poll mode: no completion interrupt will
			// ever fire, so spin-reclaim until the device frees a chain.
			// Flush any batched doorbell first — the device has not seen
			// those chains yet.
			if pq.unkicked > 0 {
				pq.tx.KickIfNeeded(p)
				pq.unkicked = 0
			}
			d.spinner.Spin(p, pq.txHasUsed, pq.reclaimed, d.pollYield)
			continue
		}
		// Ring full: netif_stop_queue. Any doorbell still batched under
		// TxKickBatch must go out now — the device has never seen those
		// chains, and with TX interrupts suppressed nothing else would
		// wake this queue. Then re-enable TX completion interrupts for
		// the sleep (virtqueue_enable_cb before the stop), re-checking
		// once in case completions already landed with the interrupt
		// elided.
		if pq.unkicked > 0 {
			pq.tx.KickIfNeeded(p)
			pq.unkicked = 0
		}
		if d.opt.SuppressTxInterrupts {
			pq.tx.SetNoInterrupt(false)
		}
		if pq.reclaimTx(p) == 0 {
			if fvassert.Enabled && pq.unkicked > 0 {
				fvassert.Failf("transmitter parking with %d batched chains unkicked", pq.unkicked)
			}
			pq.txWQ.Wait(p)
			pq.reclaimTx(p)
		}
		if d.opt.SuppressTxInterrupts {
			pq.tx.SetNoInterrupt(true)
		}
	}
	idx := pq.txFree[len(pq.txFree)-1]
	pq.txFree = pq.txFree[:len(pq.txFree)-1]
	buf := pq.txBufs[idx]

	hdr := virtio.NetHdr{NumBuffers: 1}
	if pkt.NeedsCsum {
		hdr.Flags = virtio.NetHdrFNeedsCsum
		hdr.CsumStart = uint16(pkt.CsumStart)
		hdr.CsumOffset = uint16(pkt.CsumOffset)
	}
	n := virtio.NetHdrSize + len(pkt.Frame)
	d.host.Copy(p, n)
	hdr.EncodeInto(d.hdrBuf[:])
	d.host.Mem.Write(buf, d.hdrBuf[:])
	d.host.Mem.Write(buf+virtio.NetHdrSize, pkt.Frame)

	if err := pq.tx.AddChain1(p, virtio.BufSeg{Addr: buf, Len: n}, pq.txTokens[idx]); err != nil {
		return err
	}
	pq.txLen[idx] = n
	pq.txInFlight[idx] = true
	switch {
	case d.opt.ForceKicks:
		pq.tx.Kick(p)
	case d.opt.TxKickBatch > 1:
		pq.unkicked++
		if pq.unkicked >= d.opt.TxKickBatch {
			pq.tx.KickIfNeeded(p)
			pq.unkicked = 0
		}
	default:
		pq.tx.KickIfNeeded(p)
	}
	d.txPkts.Inc()
	return nil
}

// UnkickedTx reports how many transmitted chains still await their
// batched doorbell across all pairs — the kick-flush invariant's
// runtime observable (must be zero before any blocking wait on
// transmit completions).
func (d *Device) UnkickedTx() int {
	n := 0
	for _, pq := range d.pairs {
		n += pq.unkicked
	}
	return n
}

// FlushTx forces the doorbell for any packets still batched under
// TxKickBatch — the end-of-window drain of the streaming engine.
func (d *Device) FlushTx(p *sim.Proc) {
	for _, pq := range d.pairs {
		if pq.unkicked > 0 {
			pq.tx.KickIfNeeded(p)
			pq.unkicked = 0
		}
	}
}

// txIRQ is the TX completion interrupt (rare: only when suppression
// is off), a step-form handler: reclaim and wake any stalled
// transmitter.
func (d *Device) txIRQ(irq *hostos.IRQ, pq *pairQueues) sim.Duration {
	for {
		switch irq.PC {
		case 0: // the handler body, then start the harvest
			if st := d.host.StepWork(&irq.Work, irqBodyCost); st != 0 {
				return st
			}
			if d.resetting {
				return 0
			}
			pq.tx.BeginHarvest()
			irq.PC = 1
		case 1: // take the next completion, or free all taken
			// pq.irqUsed holds what this harvest, and any TX interrupt
			// overlapping it on the pair, has taken and not yet freed.
			u, ok := pq.tx.NextUsed()
			if !ok {
				for _, u := range pq.irqUsed {
					idx := u.Token.(txToken).idx
					if fvassert.Enabled && !pq.txInFlight[idx] {
						fvassert.Failf("virtionet: TX completion for buffer %d that is not in flight", idx)
					}
					pq.txInFlight[idx] = false
					pq.txFree = append(pq.txFree, idx)
				}
				pq.irqUsed = pq.irqUsed[:0]
				pq.txWQ.Wake()
				return 0
			}
			pq.irqUsed = append(pq.irqUsed, u)
			irq.PC = 2
		case 2: // the completion's harvest cost
			if st := d.host.StepWork(&irq.Work, virtiopci.GetUsedCost); st != 0 {
				return st
			}
			irq.PC = 1
		}
	}
}

// rxIRQ is the receive interrupt, a step-form handler: disable further
// RX interrupts and hand off to NAPI poll, per the kernel's structure.
// The poll is the pair's RX drain, run inline.
func (d *Device) rxIRQ(irq *hostos.IRQ, pq *pairQueues) sim.Duration {
	for {
		switch irq.PC {
		case 0: // count the interrupt
			d.rxIRQs.Inc()
			irq.PC = 1
		case 1: // the handler body, then the softirq latency
			if st := d.host.StepWork(&irq.Work, irqBodyCost); st != 0 {
				return st
			}
			if d.resetting {
				return 0
			}
			pq.rx.SetNoInterrupt(true)
			irq.PC = 2
			if l := d.host.Config().SoftIRQLatency; l != 0 {
				return l
			}
		case 2: // NAPI poll, unless a poll is already running
			if pq.polling {
				return 0
			}
			pq.poll.begin(true)
			irq.PC = 3
		case 3:
			return pq.poll.run()
		}
	}
}

// napiPoll drains the RX used ring from p, as the NAPI poll does (see
// rxPoll), unless a poll is already running.
func (d *Device) napiPoll(p *sim.Proc, pq *pairQueues) {
	if b := d.opt.blocking; b != nil {
		b.napiPoll(d, p, pq)
		return
	}
	if pq.polling {
		return
	}
	pq.poll.begin(true)
	p.SleepSteps(pq.poll.step)
}

// Where an RX drain's step resumes.
const (
	rxCheck       = iota // NAPI: stop on a reset, else drain
	rxDrain              // start the harvest
	rxHarvest            // take the next completion, or start on the frames
	rxHarvestCost        // the completion's harvest cost
	rxFrame              // the next frame, or the kick once all are handled
	rxPktCost            // the per-frame cost, then plan the frame's delivery
	rxInput              // the stack's segments, then apply the delivery
	rxRefill             // stop on a reset, else the refill cost
	rxRepost             // the repost's cost, then repost the buffer
	rxKicked             // post the doorbell
	rxDrained            // NAPI: re-enable interrupts and re-check
	rxEnd                // close the span, release the latch
)

// rxPoll is one queue pair's RX drain as a step machine: harvest a
// batch of RX completions, deliver the frames to the stack and repost
// their buffers. Under NAPI (the interrupt pipeline, and the watchdog's
// rescue poll) it then re-enables interrupts, with the standard
// re-check to close the race, and drains again while more arrived;
// under BusyPoll it drains once and never touches the suppression
// flags. The RX interrupt runs it inline, BusyPoll and the watchdog
// through SleepSteps. pq.polling latches it: one runs at a time per
// pair.
type rxPoll struct {
	d    *Device
	pq   *pairQueues
	pc   uint8
	napi bool
	work hostos.Work
	i    int // the frame being handled, an index into pq.rxUsed
	seg  int // the stack segment being charged
	cost sim.Duration
	// n is what the last drain harvested: the number of frames, or -1
	// when a device reset claimed the ring mid-drain (recoverReset owns
	// the buffers then).
	n    int
	plan netstack.RxPlan
	sp   sim.SpanRef
	step func() sim.Duration // run, bound once
}

// begin takes the pair's latch and opens the poll's span.
func (r *rxPoll) begin(napi bool) {
	r.pq.polling, r.napi = true, napi
	span := r.d.spans.busypoll
	r.pc = rxDrain
	if napi {
		span = r.d.spans.napi
		r.pc = rxCheck
	}
	r.sp = r.d.host.Sim.BeginSpan(span) // ends at rxEnd
}

// run is the drain's step.
func (r *rxPoll) run() sim.Duration {
	d, pq, h := r.d, r.pq, r.d.host
	for {
		switch r.pc {
		case rxCheck:
			r.pc = rxDrain
			if d.resetting {
				r.pc = rxEnd
			}
		case rxDrain:
			pq.rx.BeginHarvest()
			pq.rxUsed = pq.rxUsed[:0]
			r.pc = rxHarvest
		case rxHarvest:
			u, ok := pq.rx.NextUsed()
			if !ok {
				r.i = 0
				r.pc = rxFrame
				continue
			}
			pq.rxUsed = append(pq.rxUsed, u)
			r.pc = rxHarvestCost
		case rxHarvestCost:
			if st := h.StepWork(&r.work, virtiopci.GetUsedCost); st != 0 {
				return st
			}
			r.pc = rxHarvest
		case rxFrame:
			if r.i < len(pq.rxUsed) {
				r.pc = rxPktCost
				continue
			}
			// Tell the device buffers were returned.
			r.n = len(pq.rxUsed)
			r.pc = rxDrained
			if pq.rx.BeginKick(d.opt.ForceKicks) {
				r.pc = rxKicked
				if c := h.RC.MMIOWriteCPU(); c != 0 {
					return c
				}
			}
		case rxPktCost:
			if st := h.StepWork(&r.work, napiPerPktCost); st != 0 {
				return st
			}
			// The used length is device-written: one past the posted
			// buffer would copy neighbouring host memory into the
			// frame, and a huge one would allocate it. Drop the frame
			// and repost the buffer, as the kernel's receive_buf length
			// check does.
			u := pq.rxUsed[r.i]
			if u.Written < virtio.NetHdrSize || u.Written > d.rxBufSize {
				if d.rxLenErrs == nil {
					d.rxLenErrs = h.Metrics().Counter(telemetry.MetricVirtionetRxLenErrors)
				}
				d.rxLenErrs.Inc()
				r.pc = rxRefill
				continue
			}
			d.stack.PlanInput(d.receive(pq, u.Token.(rxToken).addr, u.Written), &r.plan)
			r.seg = 0
			r.pc = rxInput
		case rxInput:
			if segs := r.plan.Segments(); r.seg < len(segs) {
				if st := h.StepWork(&r.work, segs[r.seg]); st != 0 {
					return st
				}
				r.seg++
				continue
			}
			// Delivery errors (stray ports, bad checksums) drop the
			// packet, as the stack does.
			_ = d.stack.ApplyInput(&r.plan)
			r.pc = rxRefill
		case rxRefill:
			// A reset that began at one of the sleeps above owns the
			// buffers now: recoverReset reposts the full RX set itself.
			if d.resetting {
				r.n = -1
				r.pc = rxDrained
				continue
			}
			if st := h.StepWork(&r.work, refillCost); st != 0 {
				return st
			}
			r.cost = pq.rx.BeginAdd1()
			r.pc = rxRepost
		case rxRepost:
			if st := h.StepWork(&r.work, r.cost); st != 0 {
				return st
			}
			// Repost the buffer, reusing the token the harvest returned.
			u := pq.rxUsed[r.i]
			if err := pq.rx.FinishAdd1(virtio.BufSeg{Addr: u.Token.(rxToken).addr, Len: d.rxBufSize, DeviceWritten: true}, u.Token); err != nil {
				panic("virtionet: repost: " + err.Error())
			}
			r.i++
			r.pc = rxFrame
		case rxKicked:
			pq.rx.FinishKick()
			r.pc = rxDrained
		case rxDrained:
			r.pc = rxEnd
			if !r.napi || r.n < 0 {
				continue
			}
			pq.rx.SetNoInterrupt(false)
			if pq.rx.HasUsed() {
				// More arrived between drain and re-enable: poll again.
				pq.rx.SetNoInterrupt(true)
				r.pc = rxCheck
			}
		case rxEnd:
			pq.polling = false
			r.sp.End()
			return 0
		}
	}
}

// receive copies one received buffer of n bytes, n at least
// NetHdrSize, out of host memory into the pair's staging buffer and
// returns its frame for the stack.
func (d *Device) receive(pq *pairQueues, addr mem.Addr, n int) netstack.RxPacket {
	if cap(pq.rxBuf) < n {
		pq.rxBuf = make([]byte, n)
	}
	raw := pq.rxBuf[:n]
	d.host.Mem.ReadInto(addr, raw)
	hdr, _ := virtio.DecodeNetHdr(raw) // fails only on a short buffer
	d.rxPkts.Inc()
	return netstack.RxPacket{
		Frame:     raw[virtio.NetHdrSize:],
		CsumValid: hdr.Flags&virtio.NetHdrFDataValid != 0,
	}
}

// BusyPoll drains pending RX completions inline from the calling
// process — poll mode's replacement for the interrupt → softirq → NAPI
// pipeline. The suppression flags are never touched (poll mode keeps
// every queue interrupt off for the session's lifetime). Returns the
// number of frames delivered to the stack.
func (d *Device) BusyPoll(p *sim.Proc) int {
	total := 0
	for _, pq := range d.pairs {
		if pq.polling || d.resetting || !pq.rx.HasUsed() {
			continue
		}
		var n int
		if b := d.opt.blocking; b != nil {
			n = b.busyDrain(d, p, pq)
		} else {
			pq.poll.begin(false)
			p.SleepSteps(pq.poll.step)
			n = pq.poll.n
		}
		if n > 0 {
			total += n
		}
	}
	return total
}

// RxPending reports RX completions BusyPoll would drain now: the
// side-effect-free probe of the poll-mode receive spin. It mirrors
// BusyPoll's skip condition, so when it reports false BusyPoll does
// nothing.
func (d *Device) RxPending() bool {
	if d.resetting {
		return false
	}
	for _, pq := range d.pairs {
		if !pq.polling && pq.rx.HasUsed() {
			return true
		}
	}
	return false
}

// PollYield is the spin loops' yield-time slow path: with fault
// injection armed it reads device status and triggers the reset walk
// on DEVICE_NEEDS_RESET — poll mode's watchdog-less detection (no
// config-IRQ recovery, no watchdog process). Without faults armed it
// costs nothing beyond the yield itself.
func (d *Device) PollYield(p *sim.Proc) {
	if d.recResets == nil || d.resetting {
		return
	}
	if d.tr.ReadStatus(p)&virtio.StatusNeedsReset != 0 {
		d.recWatchdog.Inc()
		d.recoverReset(p)
	}
}

// Spinner exposes the poll-mode spin executor (nil outside poll mode);
// sessions share it so the whole datapath spins under one policy and
// one set of poll.* instruments.
func (d *Device) Spinner() *hostos.Spinner { return d.spinner }

// ctrlIRQ completes a pending control command, a step-form handler.
func (d *Device) ctrlIRQ(irq *hostos.IRQ) sim.Duration {
	if st := d.host.StepWork(&irq.Work, irqBodyCost); st != 0 {
		return st
	}
	if !d.resetting {
		d.ctrlWQ.Wake()
	}
	return 0
}

// ctrlCommand issues one control-queue command (class, command,
// payload) and blocks for the device's ack byte.
func (d *Device) ctrlCommand(p *sim.Proc, class, cmd byte, payload []byte) error {
	if d.ctrlq == nil {
		return fmt.Errorf("virtionet: no control queue negotiated")
	}
	n := 2 + len(payload)
	cmdBuf := d.tr.AllocBuffer(n)
	ack := d.tr.AllocBuffer(1)
	d.host.Mem.Write(cmdBuf, append([]byte{class, cmd}, payload...))
	d.host.Mem.PutU8(ack, 0xff)
	if err := d.ctrlq.AddChain(p, []virtio.BufSeg{
		{Addr: cmdBuf, Len: n},
		{Addr: ack, Len: 1, DeviceWritten: true},
	}, "ctrl"); err != nil {
		return err
	}
	d.ctrlq.Kick(p)
	if d.opt.PollMode {
		// Control completions are polled like everything else (the ctrl
		// queue's interrupt is suppressed for the session's lifetime).
		d.spinner.Spin(p, d.ctrlHasUsed, nil, d.pollYield)
	} else {
		for !d.ctrlq.HasUsed() {
			d.ctrlWQ.Wait(p)
		}
	}
	d.ctrlq.Harvest(p)
	if st := d.host.Mem.U8(ack); st != virtio.NetCtrlAckOK {
		return fmt.Errorf("virtionet: ctrl command %d/%d failed: status %d", class, cmd, st)
	}
	return nil
}

// SetPromiscuous issues VIRTIO_NET_CTRL_RX_PROMISC over the control
// queue and blocks for the device's ack.
func (d *Device) SetPromiscuous(p *sim.Proc, on bool) error {
	v := byte(0)
	if on {
		v = 1
	}
	return d.ctrlCommand(p, virtio.NetCtrlRx, virtio.NetCtrlRxPromisc, []byte{v})
}

// onConfigIRQ handles the config-change interrupt (MSI-X vector 0):
// the device uses it to announce DEVICE_NEEDS_RESET.
func (d *Device) onConfigIRQ(p *sim.Proc) {
	d.host.CPUWork(p, irqBodyCost)
	if d.resetting {
		return
	}
	if d.tr.ReadISR(p)&virtio.ISRConfig == 0 {
		return
	}
	if d.tr.ReadStatus(p)&virtio.StatusNeedsReset == 0 {
		return
	}
	d.recoverReset(p)
}

// recoverReset is the spec's reset sequence (virtio 1.2 §2.4): tear the
// driver state down, re-negotiate from status 0, rebuild every ring,
// repost all receive buffers, and resubmit the transmits the device
// abandoned mid-flight. Runs in whatever process observed NEEDS_RESET
// (config IRQ or watchdog).
func (d *Device) recoverReset(p *sim.Proc) {
	if d.resetting {
		return
	}
	d.resetting = true
	sp := p.Sim().BeginSpan(d.spans.reset)
	d.recResets.Inc()

	// Harvest completions that landed before the device stopped, so
	// finished chains are returned to the free list and never requeued.
	for _, pq := range d.pairs {
		pq.reclaimTx(p)
	}
	// The old rings are dead the moment re-negotiation starts; any
	// further use is a driver bug (fvinvariants builds panic on it).
	for _, pq := range d.pairs {
		pq.rx.MarkDead()
		pq.tx.MarkDead()
	}
	if d.ctrlq != nil {
		d.ctrlq.MarkDead()
	}

	feats, err := d.tr.Negotiate(p, d.want)
	if err != nil {
		panic("virtionet: reset re-negotiation: " + err.Error())
	}
	for i, pq := range d.pairs {
		rx, err := d.tr.SetupQueue(p, virtio.NetRXQueue(i), d.qsize)
		if err != nil {
			panic("virtionet: reset RX rebuild: " + err.Error())
		}
		tx, err := d.tr.SetupQueue(p, virtio.NetTXQueue(i), d.qsize)
		if err != nil {
			panic("virtionet: reset TX rebuild: " + err.Error())
		}
		pq.rx, pq.tx = rx, tx
		if d.opt.PollMode {
			pq.rx.SetNoInterrupt(true)
			pq.tx.SetNoInterrupt(true)
		} else if d.opt.SuppressTxInterrupts {
			pq.tx.SetNoInterrupt(true)
		}
	}
	if d.ctrlq != nil {
		ctrlIdx := queueCtrl
		if feats.Has(virtio.NetFMQ) {
			ctrlIdx = virtio.NetCtrlQueue(d.maxPairs)
		}
		cq, err := d.tr.SetupQueue(p, ctrlIdx, 16)
		if err != nil {
			panic("virtionet: reset ctrl rebuild: " + err.Error())
		}
		d.ctrlq = cq
		if d.opt.PollMode {
			d.ctrlq.SetNoInterrupt(true)
		}
	}
	// The IRQ registrations survive: the handler closures dereference
	// pq.rx / pq.tx / d.ctrlq at delivery time and the vector numbers
	// are a function of the queue indices, which did not change.

	// Repost the entire receive buffer set into the fresh ring.
	for _, pq := range d.pairs {
		for i, addr := range pq.rxAddrs {
			if err := pq.rx.AddChain1(p, virtio.BufSeg{Addr: addr, Len: d.rxBufSize, DeviceWritten: true}, rxToken{addr: addr, idx: i}); err != nil {
				panic("virtionet: reset RX repost: " + err.Error())
			}
		}
		pq.rx.Kick(p)
	}
	d.tr.DriverOK(p)

	// Requeue the transmits the device never completed. Anything the
	// pre-reset reclaim freed has txInFlight cleared, so a buffer can
	// not be double-requeued.
	for _, pq := range d.pairs {
		requeued := 0
		for idx, inflight := range pq.txInFlight {
			if !inflight {
				continue
			}
			if fvassert.Enabled {
				for _, f := range pq.txFree {
					if f == idx {
						fvassert.Failf("virtionet: requeue of TX buffer %d already on the free list", idx)
					}
				}
			}
			if err := pq.tx.AddChain1(p, virtio.BufSeg{Addr: pq.txBufs[idx], Len: pq.txLen[idx]}, pq.txTokens[idx]); err != nil {
				panic("virtionet: reset TX requeue: " + err.Error())
			}
			d.recRequeued.Inc()
			requeued++
		}
		pq.unkicked = 0
		if requeued > 0 {
			pq.tx.Kick(p)
		}
	}

	// Recovery done: lift the gate before the MQ command, whose
	// completion interrupt would otherwise be swallowed by it.
	d.resetting = false
	if feats.Has(virtio.NetFMQ) {
		pairs := len(d.pairs)
		if err := d.ctrlCommand(p, virtio.NetCtrlMQ, virtio.NetCtrlMQPairs,
			[]byte{byte(pairs), byte(pairs >> 8)}); err != nil {
			panic("virtionet: reset VQ_PAIRS_SET: " + err.Error())
		}
	}
	for _, pq := range d.pairs {
		pq.txWQ.Wake()
	}
	sp.End()
}

// watchdog is the completion watchdog: a periodic sweep that catches
// what a lost interrupt or a silently stopped device would otherwise
// turn into a hang. It only runs when fault injection is armed.
func (d *Device) watchdog(p *sim.Proc) {
	for {
		p.Sleep(watchdogPeriod)
		if d.resetting {
			continue
		}
		// A NEEDS_RESET whose config interrupt was dropped.
		if d.tr.ReadStatus(p)&virtio.StatusNeedsReset != 0 {
			d.recWatchdog.Inc()
			d.recoverReset(p)
			continue
		}
		for _, pq := range d.pairs {
			// RX completions pending with no poll running: the RX
			// interrupt was lost. Two strikes, then rescue-poll.
			if pq.rx.HasUsed() && !pq.polling {
				pq.rxStrikes++
				if pq.rxStrikes >= watchdogStrikes {
					pq.rxStrikes = 0
					d.recWatchdog.Inc()
					pq.rx.SetNoInterrupt(true)
					d.napiPoll(p, pq)
				}
			} else {
				pq.rxStrikes = 0
			}
			if d.resetting {
				break
			}
			// TX chains in flight with no progress and nothing harvested:
			// the doorbell (or the device's run) was lost — re-ring. A
			// spurious doorbell is harmless, so this is safe to be wrong.
			inflight := 0
			for _, f := range pq.txInFlight {
				if f {
					inflight++
				}
			}
			if inflight > 0 && inflight == pq.lastInFlight && !pq.tx.HasUsed() {
				pq.txStrikes++
				if pq.txStrikes >= watchdogStrikes {
					pq.txStrikes = 0
					d.recWatchdog.Inc()
					pq.tx.Kick(p)
				}
			} else {
				pq.txStrikes = 0
			}
			pq.lastInFlight = inflight
			// Completions landed but the waker's interrupt was elided or
			// dropped while a transmitter sleeps: wake it to reclaim.
			if pq.tx.HasUsed() && pq.txWQ.Waiters() > 0 {
				d.recWatchdog.Inc()
				pq.txWQ.Wake()
			}
		}
		// A control command waiting on a completion whose interrupt was
		// dropped.
		if !d.resetting && d.ctrlq != nil && d.ctrlq.HasUsed() && d.ctrlWQ.Waiters() > 0 {
			d.recWatchdog.Inc()
			d.ctrlWQ.Wake()
		}
	}
}
