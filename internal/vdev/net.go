package vdev

import (
	"fmt"

	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// Net queue indices (virtio-net: receiveq1, transmitq1, then the
// control queue when negotiated).
const (
	NetQueueRX   = 0
	NetQueueTX   = 1
	NetQueueCtrl = 2
)

// NetOptions parameterizes a network-device instance.
type NetOptions struct {
	Link pcie.LinkConfig
	MAC  netstack.MAC
	MTU  uint16
	// OfferCsum exposes VIRTIO_NET_F_CSUM/GUEST_CSUM (TX/RX checksum
	// offload); the driver decides whether to accept.
	OfferCsum bool
	// OfferCtrlVQ exposes the control virtqueue.
	OfferCtrlVQ bool
	// OfferEventIdx exposes VIRTIO_F_RING_EVENT_IDX.
	OfferEventIdx bool
	// OfferPacked exposes VIRTIO_F_RING_PACKED.
	OfferPacked bool
	// QueuePairs is the number of RX/TX queue pairs the device exposes
	// (default 1). More than one pair offers VIRTIO_NET_F_MQ and lays
	// the queues out as receiveq1, transmitq1, receiveq2, transmitq2,
	// ..., controlq per the spec.
	QueuePairs int
	// IRQCoalescePkts/IRQCoalesceTimer configure the controller's
	// per-queue interrupt coalescing under batch load (see Options).
	IRQCoalescePkts  int
	IRQCoalesceTimer sim.Duration

	// loops, set only by tests, see Options; it also runs the user
	// logic through its blocking loop.
	loops *blockingLoops
}

// txFrame is one transmitted frame queued for user logic, tagged with
// the queue pair it arrived on so the echo reply returns on the same
// pair (receive-side steering).
type txFrame struct {
	pair  int
	frame []byte
}

// NetDevice is the VirtIO network-device personality plus its user
// logic: the paper's test case (§III-A).
type NetDevice struct {
	ctrl *Controller
	opt  NetOptions

	frames    []txFrame
	frameHead int      // index of the next frame to pop
	framePool [][]byte // recycled frame buffers (TX engine -> user logic)
	frameC    *sim.Cond
	respGen   *fpga.PerfCounter
	respSpan  sim.SpanKind
	promisc   bool
	curPairs  int
	rxFrames  int
	txFrames  int

	// The user logic's step machine (see run).
	p       *sim.Proc
	pc      uint8
	frame   txFrame     // the frame being answered
	resp    []byte      // reused echo reply
	sendBuf []byte      // reused header+reply staging
	sp      sim.SpanRef // the reply's response-generation span
	dl      *delivery   // the reply's delivery
	step    func() sim.Duration
}

// NewNet attaches a network device to the root complex.
func NewNet(s *sim.Sim, rc *pcie.RootComplex, name string, opt NetOptions) *NetDevice {
	if opt.MTU == 0 {
		opt.MTU = 1500
	}
	if opt.QueuePairs == 0 {
		opt.QueuePairs = 1
	}
	d := &NetDevice{opt: opt, curPairs: opt.QueuePairs, frameC: sim.NewCond(s, name+".frames")}
	d.ctrl = NewController(s, rc, name, d, Options{
		Link:             opt.Link,
		OfferEventIdx:    opt.OfferEventIdx,
		OfferPacked:      opt.OfferPacked,
		IRQCoalescePkts:  opt.IRQCoalescePkts,
		IRQCoalesceTimer: opt.IRQCoalesceTimer,
		loops:            opt.loops,
	})
	d.respGen = fpga.NewPerfCounter(d.ctrl.Clock(), name+".respgen")
	d.respSpan = s.SpanKind(telemetry.LayerVirtIODevice, "", "respgen")
	d.step = d.run
	if l := opt.loops; l != nil {
		s.Go(name+".userlogic", func(p *sim.Proc) { l.user(p, d) })
	} else {
		d.p = s.GoSteps(0, name+".userlogic", d.step)
	}
	return d
}

// Controller returns the underlying VirtIO controller.
func (d *NetDevice) Controller() *Controller { return d.ctrl }

// RespGenCounter returns the response-generation hardware counter,
// whose samples the experiment deducts per the paper's methodology.
func (d *NetDevice) RespGenCounter() *fpga.PerfCounter { return d.respGen }

// Stats reports frames seen in each direction.
func (d *NetDevice) Stats() (tx, rx int) { return d.txFrames, d.rxFrames }

// Type implements Personality.
func (d *NetDevice) Type() virtio.DeviceType { return virtio.DeviceNet }

// DeviceFeatures implements Personality.
func (d *NetDevice) DeviceFeatures() virtio.Feature {
	f := virtio.NetFMAC | virtio.NetFMTU | virtio.NetFStatus
	if d.opt.OfferCsum {
		f |= virtio.NetFCsum | virtio.NetFGuestCsum
	}
	if d.opt.OfferCtrlVQ {
		f |= virtio.NetFCtrlVQ
	}
	if d.opt.QueuePairs > 1 {
		f |= virtio.NetFMQ
	}
	return f
}

// NumQueues implements Personality.
func (d *NetDevice) NumQueues() int {
	n := 2 * d.opt.QueuePairs
	if d.opt.OfferCtrlVQ {
		n++
	}
	return n
}

// ctrlQueue is the control-queue index (after the last transmit queue).
func (d *NetDevice) ctrlQueue() int { return virtio.NetCtrlQueue(d.opt.QueuePairs) }

// QueueDir implements Personality.
func (d *NetDevice) QueueDir(q int) Dir {
	if d.opt.OfferCtrlVQ && q == d.ctrlQueue() {
		return DriverToDevice
	}
	if q%2 == 0 {
		return DeviceToDriver // receiveqN
	}
	return DriverToDevice // transmitqN
}

// ConfigBytes implements Personality: the virtio-net config window
// (MAC, status, max queue pairs, MTU).
func (d *NetDevice) ConfigBytes() []byte {
	b := make([]byte, virtio.NetCfgLen)
	copy(b[virtio.NetCfgMAC:], d.opt.MAC[:])
	b[virtio.NetCfgStatus] = virtio.NetStatusLinkUp
	b[virtio.NetCfgMaxVQP] = byte(d.opt.QueuePairs)
	b[virtio.NetCfgMaxVQP+1] = byte(d.opt.QueuePairs >> 8)
	b[virtio.NetCfgMTU] = byte(d.opt.MTU)
	b[virtio.NetCfgMTU+1] = byte(d.opt.MTU >> 8)
	return b
}

// isTxQueue reports whether q is one of the transmit queues.
func (d *NetDevice) isTxQueue(q int) bool { return q%2 == 1 && q < 2*d.opt.QueuePairs }

// ChainCost implements Personality: a control command's register-file
// access, or the checksum datapath at line rate over a transmitted
// frame's L4 region when the driver asked for checksum offload.
func (d *NetDevice) ChainCost(q int, data []byte, writable int) sim.Duration {
	clk := d.ctrl.Clock()
	if d.opt.OfferCtrlVQ && q == d.ctrlQueue() {
		if len(data) < 2 {
			return 0
		}
		return clk.Cycles(configAccessCycles)
	}
	if !d.isTxQueue(q) {
		return 0
	}
	hdr, err := virtio.DecodeNetHdr(data)
	if err != nil || hdr.Flags&virtio.NetHdrFNeedsCsum == 0 {
		return 0
	}
	n := len(data) - virtio.NetHdrSize - int(hdr.CsumStart)
	if n <= 0 {
		return 0
	}
	return clk.Cycles(clk.CyclesFor(n, 16) * csumPerBeatCycles)
}

// HandleDriverChain implements Personality for the TX and control
// queues.
func (d *NetDevice) HandleDriverChain(q int, data []byte, writable int) []byte {
	if d.opt.OfferCtrlVQ && q == d.ctrlQueue() {
		return d.handleCtrl(data)
	}
	if d.isTxQueue(q) {
		d.handleTx(q/2, data)
		return nil
	}
	panic(fmt.Sprintf("vdev: net: unexpected driver chain on queue %d", q))
}

// handleTx processes one transmitted packet: strip the virtio-net
// header, fill the checksum if the driver asked for offload, queue the
// frame for user logic.
func (d *NetDevice) handleTx(pair int, data []byte) {
	hdr, err := virtio.DecodeNetHdr(data)
	if err != nil {
		panic("vdev: net: " + err.Error())
	}
	// The chain data is queue-owned scratch, so the frame is copied into
	// a pooled buffer that the user logic recycles after handling.
	need := len(data) - virtio.NetHdrSize
	var frame []byte
	if n := len(d.framePool); n > 0 && cap(d.framePool[n-1]) >= need {
		frame = d.framePool[n-1][:need]
		d.framePool[n-1] = nil
		d.framePool = d.framePool[:n-1]
	} else {
		frame = make([]byte, need)
	}
	copy(frame, data[virtio.NetHdrSize:])
	if hdr.Flags&virtio.NetHdrFNeedsCsum != 0 {
		if err := netstack.FillUDPChecksum(frame); err != nil {
			panic("vdev: net: csum offload: " + err.Error())
		}
	}
	d.txFrames++
	d.frames = append(d.frames, txFrame{pair: pair, frame: frame})
	d.frameC.Broadcast()
}

// handleCtrl executes a control-queue command and returns the ack byte.
func (d *NetDevice) handleCtrl(data []byte) []byte {
	if len(data) < 2 {
		return []byte{virtio.NetCtrlAckErr}
	}
	class, cmd := data[0], data[1]
	if class == virtio.NetCtrlRx && cmd == virtio.NetCtrlRxPromisc {
		if len(data) >= 3 {
			d.promisc = data[2] != 0
			return []byte{virtio.NetCtrlAckOK}
		}
	}
	if class == virtio.NetCtrlMQ && cmd == virtio.NetCtrlMQPairs {
		if len(data) >= 4 && d.ctrl.Negotiated().Has(virtio.NetFMQ) {
			pairs := int(data[2]) | int(data[3])<<8
			if pairs >= virtio.NetMQPairsMin && pairs <= d.opt.QueuePairs {
				d.curPairs = pairs
				return []byte{virtio.NetCtrlAckOK}
			}
		}
	}
	return []byte{virtio.NetCtrlAckErr}
}

// Promiscuous reports the control-queue promiscuous setting.
func (d *NetDevice) Promiscuous() bool { return d.promisc }

// popFrame takes the oldest frame the TX engine queued, reporting
// false when there is none.
func (d *NetDevice) popFrame() (txFrame, bool) {
	if len(d.frames) == d.frameHead {
		return txFrame{}, false
	}
	f := d.frames[d.frameHead]
	d.frames[d.frameHead] = txFrame{}
	d.frameHead++
	if d.frameHead == len(d.frames) {
		d.frames = d.frames[:0]
		d.frameHead = 0
	}
	return f, true
}

// echo builds the paper's echo reply to frame in d.resp, a reused
// buffer: a same-size UDP response with swapped addresses and ports and
// recomputed checksums. It returns the reply's cost: the
// parse/buffer/rewrite pipeline plus one checksum pass over the frame
// at 16 B/cycle — the response-generation time the paper deducts from
// the VirtIO measurements. A non-UDP frame (e.g. stray ARP) leaves
// d.resp empty and costs nothing: the echo design drops it silently,
// as it only answers the test flow.
func (d *NetDevice) echo(frame []byte) sim.Duration {
	resp, err := netstack.BuildEchoResponseInto(frame, d.resp)
	if err != nil {
		d.resp = d.resp[:0]
		return 0
	}
	d.resp = resp
	clk := d.ctrl.Clock()
	return clk.Cycles(150 + clk.CyclesFor(len(resp), 16))
}

// rxBuffer stages frame for the host on the receive queue of the given
// queue pair — the device's receive-side steering — prefixed with a
// virtio-net header, and returns that queue's index and the staged
// bytes. When the driver negotiated GUEST_CSUM the device marks the
// frame's checksum as already validated.
func (d *NetDevice) rxBuffer(pair int, frame []byte) (int, []byte, error) {
	if pair < 0 || pair >= d.curPairs {
		return 0, nil, fmt.Errorf("vdev: net: queue pair %d not active (%d pairs)", pair, d.curPairs)
	}
	hdr := virtio.NetHdr{NumBuffers: 1}
	if d.ctrl.Negotiated().Has(virtio.NetFGuestCsum) {
		hdr.Flags = virtio.NetHdrFDataValid
	}
	n := virtio.NetHdrSize + len(frame)
	if cap(d.sendBuf) < n {
		d.sendBuf = make([]byte, n)
	}
	buf := d.sendBuf[:n]
	hdr.EncodeInto(buf)
	copy(buf[virtio.NetHdrSize:], frame)
	d.rxFrames++
	return virtio.NetRXQueue(pair), buf, nil
}

// Where the user logic's step resumes.
const (
	ulWait    = iota // pop a frame, start its reply
	ulReplied        // close response generation, deliver the reply
	ulSending        // the reply's delivery runs
)

// run is the user logic's step, which never returns 0: it
// pops the frames the TX engine queued, generates each echo reply
// (response generation, measured separately per the paper's Fig. 4
// methodology) and delivers it into the RX queue of the frame's pair.
func (d *NetDevice) run() sim.Duration {
	for {
		switch d.pc {
		case ulWait:
			f, ok := d.popFrame()
			if !ok {
				d.frameC.Await(d.p)
				return sim.Blocked
			}
			d.frame = f
			// Span and counter bracket the same instants: respgen time
			// is deducted from hardware in both attribution schemes.
			d.respGen.Begin(d.p.Now())
			d.sp = d.p.Sim().BeginSpan(d.respSpan)
			d.pc = ulReplied
			if cost := d.echo(f.frame); cost != 0 {
				return cost
			}
		case ulReplied:
			d.respGen.End(d.p.Now())
			d.sp.End()
			d.pc = ulWait
			if len(d.resp) == 0 {
				d.framePool = append(d.framePool, d.frame.frame[:0])
				continue
			}
			qi, buf, err := d.rxBuffer(d.frame.pair, d.resp)
			if err != nil {
				panic("vdev: net: " + err.Error())
			}
			d.dl = d.ctrl.queues[qi].dl
			d.dl.begin(d.p, buf)
			d.pc = ulSending
		case ulSending:
			if st := d.dl.run(); st != 0 {
				return st
			}
			if d.dl.err != nil {
				panic("vdev: net: " + d.dl.err.Error())
			}
			d.framePool = append(d.framePool, d.frame.frame[:0])
			d.pc = ulWait
		}
	}
}
