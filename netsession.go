package fpgavirtio

import (
	"fmt"
	"time"

	"fpgavirtio/internal/drivers/virtionet"
	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/vdev"
	"fpgavirtio/internal/virtio"
)

// NetConfig configures a VirtIO network-device session. The zero value
// (plus any Config) reproduces the paper's setup: checksum offload and
// control queue offered and accepted, echo user logic.
type NetConfig struct {
	Config
	// DisableCsumOffload removes NET_F_CSUM/GUEST_CSUM from the device
	// offer (the E5 ablation).
	DisableCsumOffload bool
	// DisableCtrlVQ removes the control queue.
	DisableCtrlVQ bool
	// QueueSize overrides the virtqueue size (default 256).
	QueueSize int
	// RXBuffers overrides the driver's pre-posted buffer count.
	RXBuffers int
	// TxInterrupts re-enables per-packet TX completion interrupts (the
	// E6 ablation); by default the driver suppresses them and reclaims
	// on the next transmit, like the kernel.
	TxInterrupts bool
	// UseEventIdx offers and negotiates VIRTIO_F_RING_EVENT_IDX:
	// index-threshold interrupt/doorbell suppression, which batches
	// notifications under bursty load.
	UseEventIdx bool
	// UsePackedRing offers and negotiates VIRTIO_F_RING_PACKED: the
	// single-ring descriptor format that halves the device's per-chain
	// bus reads relative to the split format.
	UsePackedRing bool
	// QueuePairs exposes and activates that many RX/TX queue pairs
	// (default 1) via VIRTIO_NET_F_MQ; the throughput mode's multi-queue
	// configuration. More than one pair requires the control queue.
	QueuePairs int
	// TxKickBatch defers TX doorbells until that many packets have been
	// queued since the last kick — driver-side descriptor batching for
	// windowed streaming. 0 or 1 kicks per packet.
	TxKickBatch int
	// ForceKicks disables every doorbell elision (device hints, event
	// thresholds, batching): the suppression-off arm of the throughput
	// comparison.
	ForceKicks bool
	// IRQCoalescePkts holds device interrupts until that many
	// completions accumulate on a queue (or the coalesce timer fires).
	// 0 or 1 interrupts per the ring's usual suppression rules.
	IRQCoalescePkts int
	// IRQCoalesceTimer bounds how long a coalesced interrupt is held
	// (default 15µs when IRQCoalescePkts > 1).
	IRQCoalesceTimer time.Duration
}

// Well-known addresses of the session's two-node network.
var (
	hostIP  = netstack.IP(10, 0, 0, 1)
	fpgaIP  = netstack.IP(10, 0, 0, 2)
	fpgaMAC = netstack.MAC{0x02, 0xfb, 0x0a, 0x00, 0x00, 0x02}
)

// appPort and echoPort are the UDP ports of the test flow.
const (
	appPort  = 47000
	echoPort = 7 // the classic echo service
)

// NetSession is a booted VirtIO-net testbed: host, FPGA network device
// with echo user logic, bound driver, configured routes/ARP, and an
// open UDP socket.
type NetSession struct {
	baseSession
	stack *netstack.Stack
	dev   *vdev.NetDevice
	drv   *virtionet.Device
	sock  *netstack.UDPSocket
	// pingSpan is the app-layer span of one timed echo exchange.
	pingSpan sim.SpanKind
	// pollFn is the busy-poll hook bound once at boot in poll mode
	// (nil otherwise): it spins the driver's RX path under the poll
	// policy until the socket has a deliverable datagram. Binding at
	// boot keeps the per-packet path allocation-free.
	pollFn func(p *sim.Proc)
}

// OpenNet boots a network-device session: attach the FPGA, enumerate,
// probe the virtio-net driver, add the route and ARP entries the paper
// describes, and bind the test socket.
func OpenNet(cfg NetConfig) (*NetSession, error) {
	ns := &NetSession{}
	ns.exchange = ns.pingOnce
	attach := func(s *sim.Sim, h *hostos.Host) {
		ns.dev = vdev.NewNet(s, h.RC, "fpga-vnet", vdev.NetOptions{
			Link:             cfg.Link.config(),
			MAC:              fpgaMAC,
			OfferCsum:        !cfg.DisableCsumOffload,
			OfferCtrlVQ:      !cfg.DisableCtrlVQ,
			OfferEventIdx:    cfg.UseEventIdx,
			OfferPacked:      cfg.UsePackedRing,
			QueuePairs:       cfg.QueuePairs,
			IRQCoalescePkts:  cfg.IRQCoalescePkts,
			IRQCoalesceTimer: sim.Ns(cfg.IRQCoalesceTimer.Nanoseconds()),
		})
		ns.stack = netstack.New(h, netstack.DefaultCosts())
		ns.pingSpan = s.SpanKind(telemetry.LayerApp, "", "ping")
	}
	bind := func(p *sim.Proc, info *pcie.DeviceInfo) error {
		opt := virtionet.DefaultOptions("eth-fpga")
		opt.WantCsum = !cfg.DisableCsumOffload
		opt.WantCtrlVQ = !cfg.DisableCtrlVQ
		opt.QueueSize = cfg.QueueSize
		opt.RXBuffers = cfg.RXBuffers
		opt.SuppressTxInterrupts = !cfg.TxInterrupts
		opt.WantEventIdx = cfg.UseEventIdx
		opt.WantPacked = cfg.UsePackedRing
		opt.QueuePairs = cfg.QueuePairs
		opt.TxKickBatch = cfg.TxKickBatch
		opt.ForceKicks = cfg.ForceKicks
		opt.PollMode = cfg.PollMode
		drv, err := virtionet.Probe(p, ns.host, ns.stack, info, opt)
		if err != nil {
			return err
		}
		ns.drv = drv
		ns.stack.AddInterface(drv, hostIP)
		ns.stack.AddRoute(netstack.IP(10, 0, 0, 0), netstack.IP(255, 255, 255, 0), "eth-fpga")
		ns.stack.AddARP(fpgaIP, fpgaMAC)
		sock, err := ns.stack.Bind(appPort)
		if err != nil {
			return err
		}
		ns.sock = sock
		if cfg.PollMode {
			// Bind the busy-poll hook once: RecvFromPolled invokes it
			// whenever the socket is empty, and it spins the driver's
			// RX drain under the poll policy until a datagram lands.
			// The probe sees a datagram already queued or a completion
			// BusyPoll would drain; PollYield rides each yield slot for
			// watchdog-less fault detection.
			spinner := drv.Spinner()
			pending := func() bool { return sock.Pending() > 0 || drv.RxPending() }
			ready := func(p *sim.Proc) bool {
				drv.BusyPoll(p)
				return sock.Pending() > 0
			}
			yield := drv.PollYield
			ns.pollFn = func(p *sim.Proc) { spinner.Spin(p, pending, ready, yield) }
		}
		return nil
	}
	if err := ns.boot(cfg.Config, attach, bind); err != nil {
		return nil, err
	}
	return ns, nil
}

// Ping sends one UDP packet with the given payload to the FPGA's echo
// service and waits for the reply, returning the echoed payload and
// the application-observed round-trip time.
func (ns *NetSession) Ping(payload []byte) (echo []byte, rtt time.Duration, err error) {
	echo = make([]byte, len(payload))
	sample, err := ns.detailed(payload, echo)
	if err != nil {
		return nil, 0, err
	}
	return echo, sample.Total, nil
}

// PingDetailed is Ping plus the paper's latency decomposition from the
// FPGA hardware performance counters.
func (ns *NetSession) PingDetailed(payload []byte) (RTTSample, error) {
	return ns.detailed(payload, nil)
}

// PingSeries runs n timed echo exchanges inside one application
// process — the sweep's hot loop. Unlike n separate Ping calls it
// spawns a single process for the whole batch and recycles the echoed
// payload buffers back to the socket, so the steady-state per-packet
// path is allocation-free. sample (optional) receives each round
// trip's index and decomposition as it completes.
func (ns *NetSession) PingSeries(payload []byte, n int, sample func(i int, s RTTSample)) error {
	return ns.series("ping", payload, nil, n, sample)
}

// pingOnce is the session's exchange: one timed echo exchange inside an
// application process, with the echoed payload copied into back (if
// any) and its buffer handed back to the socket's pool.
func (ns *NetSession) pingOnce(p *sim.Proc, payload, back []byte) (RTTSample, error) {
	t0 := ns.host.ClockGettime(p)
	// The app span brackets the same instants as the RTT timer, so
	// span-derived totals agree with RTTSample.Total.
	sp := ns.s.BeginSpan(ns.pingSpan)
	if err := ns.sock.SendTo(p, fpgaIP, echoPort, payload); err != nil {
		sp.End()
		return RTTSample{}, err
	}
	if ns.sock.Pending() == 0 {
		// A TxKickBatch driver defers the doorbell; force it before the
		// blocking receive or this lone packet would never reach the
		// device. With batching off FlushTx is a timing no-op, so the
		// latency-mode sequence is unchanged.
		ns.drv.FlushTx(p)
	}
	if fvassert.Enabled && ns.sock.Pending() == 0 && ns.drv.UnkickedTx() > 0 {
		fvassert.Failf("blocking receive with %d batched chains unkicked", ns.drv.UnkickedTx())
	}
	echo, err := ns.recv(p)
	if err != nil {
		sp.End()
		return RTTSample{}, err
	}
	t1 := ns.host.ClockGettime(p)
	sp.End()
	copy(back, echo)
	ns.sock.Recycle(echo)

	total := t1.Sub(t0)
	var hw sim.Duration
	if d, ok := ns.dev.Controller().QueueCounter(vdev.NetQueueTX).TakeLast(); ok {
		hw += d
	}
	if d, ok := ns.dev.Controller().QueueCounter(vdev.NetQueueRX).TakeLast(); ok {
		hw += d
	}
	respGen, _ := ns.dev.RespGenCounter().TakeLast()
	sample := RTTSample{
		Total:    toStd(total),
		Hardware: toStd(hw),
		RespGen:  toStd(respGen),
		Software: toStd(total - hw - respGen),
	}
	ns.flight.note(sample)
	return sample, nil
}

// recv is the session's blocking receive: busy-polled in poll mode
// (the spin loop runs inside the recvfrom syscall, SO_BUSY_POLL
// style), wait-queue-blocked otherwise.
func (ns *NetSession) recv(p *sim.Proc) ([]byte, error) {
	if ns.pollFn != nil {
		got, _, _, err := ns.sock.RecvFromPolled(p, ns.pollFn)
		return got, err
	}
	got, _, _, err := ns.sock.RecvFrom(p)
	return got, err
}

// SetPromiscuous issues the control-queue promiscuous command.
func (ns *NetSession) SetPromiscuous(on bool) error {
	return ns.run(func(p *sim.Proc) error { return ns.drv.SetPromiscuous(p, on) })
}

// Promiscuous reports the device-side promiscuous state.
func (ns *NetSession) Promiscuous() bool { return ns.dev.Promiscuous() }

// NegotiatedFeatures describes the accepted VirtIO feature bits.
func (ns *NetSession) NegotiatedFeatures() string {
	return ns.dev.Controller().Negotiated().String()
}

// ChecksumOffloaded reports whether NET_F_CSUM was negotiated.
func (ns *NetSession) ChecksumOffloaded() bool {
	return ns.dev.Controller().Negotiated().Has(virtio.NetFCsum)
}

// QueuePairs reports how many virtio-net queue pairs the driver
// negotiated and activated.
func (ns *NetSession) QueuePairs() int { return ns.drv.QueuePairs() }

// BypassCopy exercises the controller's host-bypass interface: user
// logic copies n bytes from one host buffer to another with no driver
// involvement, returning the fabric-observed duration.
func (ns *NetSession) BypassCopy(n int) (time.Duration, error) {
	if n < 1 {
		return 0, fmt.Errorf("fpgavirtio: bypass copy needs n >= 1 byte, got %d", n)
	}
	src := ns.host.Alloc.Alloc(n, 64)
	dst := ns.host.Alloc.Alloc(n, 64)
	buf := make([]byte, n)
	ns.host.RNG().Bytes(buf)
	ns.host.Mem.Write(src, buf)
	var dur sim.Duration
	err := ns.run(func(p *sim.Proc) error {
		done := sim.NewTrigger(ns.s, "bypass")
		ns.s.Go("fabric-bypass", func(fp *sim.Proc) {
			t0 := fp.Now()
			data := ns.dev.Controller().BypassRead(fp, src, n)
			ns.dev.Controller().BypassWrite(fp, dst, data)
			dur = fp.Now().Sub(t0)
			done.Fire()
		})
		done.Wait(p)
		// Posted writes are still in flight when the fabric releases
		// the data mover; allow them to land before verifying.
		p.Sleep(sim.Us(2))
		got := ns.host.Mem.Read(dst, n)
		for i := range buf {
			if got[i] != buf[i] {
				return fmt.Errorf("fpgavirtio: bypass data mismatch at %d", i)
			}
		}
		return nil
	})
	return toStd(dur), err
}
