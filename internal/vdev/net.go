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

// FrameHandler is the user-logic hook of the network device: it
// receives each frame the host transmitted and returns zero or more
// response frames to send back — the paper's echo logic returns one
// same-size UDP reply per packet. It runs in the user-logic fabric
// process; cycle costs inside are the implementation's responsibility.
// The frame argument and the returned frames are scratch valid only
// until the next HandleFrame call, so implementations may reuse their
// response buffers and must copy the input if they retain it.
type FrameHandler interface {
	HandleFrame(p *sim.Proc, frame []byte) [][]byte
}

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
	Handler          FrameHandler
}

// txFrame is one transmitted frame queued for user logic, tagged with
// the queue pair it arrived on so the echo reply returns on the same
// pair (receive-side steering).
type txFrame struct {
	pair  int
	frame []byte
}

// NetDevice is the VirtIO network-device personality plus its user
// logic plumbing: the paper's test case (§III-A).
type NetDevice struct {
	ctrl *Controller
	opt  NetOptions

	frames    []txFrame
	frameHead int      // index of the next frame to pop
	framePool [][]byte // recycled frame buffers (TX engine -> user loop)
	sendBuf   []byte   // reused header+frame staging for SendOn
	frameC    *sim.Cond
	respGen   *fpga.PerfCounter
	respSpan  sim.SpanKind
	promisc   bool
	curPairs  int
	rxFrames  int
	txFrames  int
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
	})
	if d.opt.Handler == nil {
		// Default user logic: the paper's same-size UDP echo.
		d.opt.Handler = NewEchoHandler(d.ctrl.Clock())
	}
	d.respGen = fpga.NewPerfCounter(d.ctrl.Clock(), name+".respgen")
	d.respSpan = s.SpanKind(telemetry.LayerVirtIODevice, "", "respgen")
	s.Go(name+".userlogic", d.userLoop)
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

// HandleDriverChain implements Personality for the TX and control
// queues.
func (d *NetDevice) HandleDriverChain(p *sim.Proc, q int, data []byte, writable int) []byte {
	if d.opt.OfferCtrlVQ && q == d.ctrlQueue() {
		return d.handleCtrl(p, data)
	}
	if q%2 == 1 && q < 2*d.opt.QueuePairs {
		d.handleTx(p, q/2, data)
		return nil
	}
	panic(fmt.Sprintf("vdev: net: unexpected driver chain on queue %d", q))
}

// handleTx processes one transmitted packet: strip the virtio-net
// header, perform checksum offload if requested, queue the frame for
// user logic.
func (d *NetDevice) handleTx(p *sim.Proc, pair int, data []byte) {
	hdr, err := virtio.DecodeNetHdr(data)
	if err != nil {
		panic("vdev: net: " + err.Error())
	}
	// The chain data is queue-owned scratch, so the frame is copied into
	// a pooled buffer that the user loop recycles after handling.
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
		// Checksum datapath runs at line rate over the L4 region.
		clk := d.ctrl.Clock()
		n := len(frame) - int(hdr.CsumStart)
		if n > 0 {
			p.Sleep(clk.Cycles(clk.CyclesFor(n, 16) * csumPerBeatCycles))
		}
		if err := netstack.FillUDPChecksum(frame); err != nil {
			panic("vdev: net: csum offload: " + err.Error())
		}
	}
	d.txFrames++
	d.frames = append(d.frames, txFrame{pair: pair, frame: frame})
	d.frameC.Broadcast()
}

// handleCtrl executes a control-queue command and returns the ack byte.
func (d *NetDevice) handleCtrl(p *sim.Proc, data []byte) []byte {
	if len(data) < 2 {
		return []byte{virtio.NetCtrlAckErr}
	}
	class, cmd := data[0], data[1]
	p.Sleep(d.ctrl.Clock().Cycles(configAccessCycles))
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

// userLoop is the user-logic process: it pops frames the TX engine
// queued, invokes the handler (response generation, measured
// separately per the paper's Fig. 4 methodology), and delivers
// responses into the RX queue.
func (d *NetDevice) userLoop(p *sim.Proc) {
	for {
		for len(d.frames) == d.frameHead {
			d.frameC.Wait(p)
		}
		f := d.frames[d.frameHead]
		d.frames[d.frameHead] = txFrame{}
		d.frameHead++
		if d.frameHead == len(d.frames) {
			d.frames = d.frames[:0]
			d.frameHead = 0
		}

		// Span and counter bracket the same instants: respgen time is
		// deducted from hardware in both attribution schemes.
		d.respGen.Begin(p.Now())
		sp := p.Sim().BeginSpan(d.respSpan)
		resps := d.opt.Handler.HandleFrame(p, f.frame)
		d.respGen.End(p.Now())
		sp.End()

		for _, resp := range resps {
			if err := d.SendOn(p, f.pair, resp); err != nil {
				panic("vdev: net: " + err.Error())
			}
		}
		d.framePool = append(d.framePool, f.frame[:0])
	}
}

// SendOn delivers one frame to the host through the receive queue of
// the given queue pair — the device's receive-side steering — prefixed
// with a virtio-net header. When the driver negotiated GUEST_CSUM the
// device marks the frame's checksum as already validated.
func (d *NetDevice) SendOn(p *sim.Proc, pair int, frame []byte) error {
	if pair < 0 || pair >= d.curPairs {
		return fmt.Errorf("vdev: net: queue pair %d not active (%d pairs)", pair, d.curPairs)
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
	return d.ctrl.Deliver(p, virtio.NetRXQueue(pair), buf)
}
