// Package vdev implements the paper's primary hardware contribution:
// a VirtIO-compliant controller on the FPGA, sitting between the XDMA
// PCIe machinery and user logic (paper Fig. 2). The controller
//
//   - presents VirtIO vendor/device IDs and the VirtIO PCI capability
//     chain at enumeration time,
//   - implements the common/notify/ISR/device configuration structures
//     in a BAR register block,
//   - runs the virtqueue engines: on a doorbell it walks the rings in
//     host memory through the DMA engine, moves payload data, publishes
//     used entries and raises MSI-X — the work that shifts the latency
//     breakdown toward hardware in the paper's Figure 4,
//   - exposes RX/TX queues with virtqueue semantics to user logic, and
//     a host-bypass DMA interface (paper §III-A).
//
// Device personalities (net, console, block) supply the device type,
// feature bits, config window and per-queue semantics.
package vdev

import (
	"fmt"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
	"fpgavirtio/internal/xdmaip"
)

// Dir is a virtqueue's data direction.
type Dir int

// Queue directions.
const (
	// DriverToDevice queues carry buffers the driver fills (net TX,
	// console TX, blk requests); the device consumes them on notify.
	DriverToDevice Dir = iota
	// DeviceToDriver queues carry buffers the driver pre-posts and the
	// device fills (net RX, console RX).
	DeviceToDriver
)

// Personality supplies the device-type-specific behaviour on top of
// the generic controller — per the paper (§IV-B), only the minimum
// queue count and the device-specific configuration structure change
// across device types.
type Personality interface {
	Type() virtio.DeviceType
	DeviceFeatures() virtio.Feature
	NumQueues() int
	QueueDir(q int) Dir
	// ConfigBytes renders the device-specific configuration window.
	ConfigBytes() []byte
	// ChainCost is the fabric time the personality spends on one chain
	// from a DriverToDevice queue before its effect: the queue engine
	// sleeps it first and then calls HandleDriverChain. data is the
	// chain's device-readable payload and writable the total capacity
	// of its device-writable segments. ChainCost must have no side
	// effect.
	ChainCost(q int, data []byte, writable int) sim.Duration
	// HandleDriverChain applies the chain's effect and returns the
	// bytes (possibly nil, at most writable long) scattered into the
	// chain's device-writable segments. It runs inside the queue
	// engine's step, so it must not block.
	HandleDriverChain(q int, data []byte, writable int) []byte
}

// BAR0 window layout of the controller.
const (
	commonOffset = 0x0000
	notifyOffset = 0x1000
	isrOffset    = 0x2000
	deviceOffset = 0x3000
	barSize      = 0x4000

	notifyMultiplier = 4
)

// Fabric cycle costs of the controller FSMs.
const (
	notifyDecodeCycles = 6 // doorbell write to engine dispatch
	chainSetupCycles   = 8 // per-chain engine bookkeeping
	usedPublishCycles  = 4 // used-entry formatting
	configAccessCycles = 2 // register file access
	csumPerBeatCycles  = 1 // checksum datapath, 16B/cycle at line rate
)

// Options parameterizes the controller instance.
type Options struct {
	Link pcie.LinkConfig
	// QueueSizeMax is the queue size the device reports (default 256).
	QueueSizeMax uint16
	// OfferEventIdx exposes VIRTIO_F_RING_EVENT_IDX: index-threshold
	// based interrupt and doorbell suppression instead of the boolean
	// flags (spec §2.7.7).
	OfferEventIdx bool
	// OfferPacked exposes VIRTIO_F_RING_PACKED: the single-ring
	// descriptor format that lets the device discover a chain with one
	// bus read (spec §2.8).
	OfferPacked bool
	// IRQCoalescePkts holds each queue's interrupt until that many
	// completions have accumulated (or the coalesce timer expires) —
	// the NIC-style mitigation for batch load. 0 or 1 disables
	// coalescing and keeps the per-completion interrupt decision.
	IRQCoalescePkts int
	// IRQCoalesceTimer bounds how long a held completion may wait for
	// the packet threshold (default 15 us when coalescing is on).
	IRQCoalesceTimer sim.Duration

	// loops, set only by tests, runs the queue engines and deliveries
	// through the blocking loops their step machines are checked
	// against.
	loops *blockingLoops
}

// blockingLoops are the blocking loops a test runs in place of the
// queue engines', deliveries' and net user logic's step machines; the
// engines and the user logic then run as coroutine processes.
type blockingLoops struct {
	engine  func(p *sim.Proc, e *engine)
	deliver func(p *sim.Proc, dl *delivery, data []byte) error
	user    func(p *sim.Proc, d *NetDevice)
}

// queue is the controller-side state of one virtqueue.
type queue struct {
	idx     int
	dir     Dir
	sizeMax uint16
	size    uint16
	enabled bool
	msixVec uint16
	desc    uint64
	driver  uint64
	device  uint64

	dq     virtio.DeviceRing
	kicked bool
	cond   *sim.Cond
	hw     *fpga.PerfCounter

	// Interrupt-coalescing state: completions held since the last
	// interrupt, and whether a flush timer is pending.
	coalesced  int
	flushArmed bool
	// flushName is the coalesce timer's process name, built once per
	// queue so arming it does not format, and flushTimers are its idle
	// timer states.
	flushName   string
	flushTimers []*flushTimer

	// Span kinds registered at construction so the engine hot path
	// does not format.
	serviceSpan sim.SpanKind
	deliverSpan sim.SpanKind

	dl *delivery // a DeviceToDriver queue's delivery
}

// Controller is the FPGA-side VirtIO endpoint.
type Controller struct {
	sim  *sim.Sim
	clk  *fpga.Clock
	ep   *pcie.Endpoint
	port *xdmaip.Port
	pers Personality

	deviceFeatures virtio.Feature
	driverFeatures virtio.Feature
	status         byte
	statusCond     *sim.Cond
	isr            byte

	featureSel       uint32
	driverFeatureSel uint32
	queueSel         uint16
	msixConfig       uint16

	queues      []*queue
	deviceCfg   []byte
	cfgGen      byte
	notifyCount int
	opt         Options
	met         ctrlMetrics
}

// ctrlMetrics caches the controller's telemetry instruments.
type ctrlMetrics struct {
	notifies      *telemetry.Counter
	chains        *telemetry.Counter
	irqRaised     *telemetry.Counter
	irqSuppressed *telemetry.Counter
	irqCoalesced  *telemetry.Counter
}

// NewController attaches a VirtIO controller with the given personality
// to the root complex. Engines start parked and come alive when the
// driver sets DRIVER_OK.
func NewController(s *sim.Sim, rc *pcie.RootComplex, name string, pers Personality, opt Options) *Controller {
	if opt.QueueSizeMax == 0 {
		opt.QueueSizeMax = 256
	}
	if opt.Link.Lanes == 0 {
		opt.Link = pcie.DefaultGen2x2() // the paper's testbed link
	}
	if opt.IRQCoalescePkts > 1 && opt.IRQCoalesceTimer == 0 {
		opt.IRQCoalesceTimer = 15 * sim.Microsecond
	}
	clk := fpga.Default125MHz()

	classCode := uint32(0x020000) // network controller
	switch pers.Type() {
	case virtio.DeviceBlock:
		classCode = 0x010000
	case virtio.DeviceConsole:
		classCode = 0x078000
	}
	cs := pcie.NewConfigSpace(virtio.PCIVendorID, pers.Type().PCIDeviceID(), classCode,
		virtio.PCIVendorID, uint16(pers.Type()))
	cs.SetBARSize(0, barSize)

	nq := pers.NumQueues()
	vectors := 1 + nq // config vector + one per queue
	cs.AddCapability(pcie.CapIDMSIX, []byte{byte(vectors - 1), 0x00, 0, 0, 0, 0, 0, 0x80, 0, 0})
	deviceCfg := pers.ConfigBytes()
	for _, c := range []virtio.PCICap{
		{CfgType: virtio.CfgTypeCommon, Bar: 0, Offset: commonOffset, Length: 0x38},
		{CfgType: virtio.CfgTypeNotify, Bar: 0, Offset: notifyOffset, Length: uint32(nq * notifyMultiplier), NotifyOffMultiplier: notifyMultiplier},
		{CfgType: virtio.CfgTypeISR, Bar: 0, Offset: isrOffset, Length: 1},
		{CfgType: virtio.CfgTypeDevice, Bar: 0, Offset: deviceOffset, Length: uint32(len(deviceCfg))},
	} {
		cs.AddCapability(pcie.CapIDVendor, c.Encode())
	}

	ep := rc.Attach(name, cs, opt.Link)
	ep.ConfigureMSIX(vectors)

	feats := virtio.FVersion1 | virtio.FRingIndirectDesc | pers.DeviceFeatures()
	if opt.OfferEventIdx {
		feats |= virtio.FRingEventIdx
	}
	if opt.OfferPacked {
		feats |= virtio.FRingPacked
	}
	reg := rc.Metrics()
	c := &Controller{
		sim:            s,
		clk:            clk,
		ep:             ep,
		port:           xdmaip.NewPort(s, ep, clk),
		pers:           pers,
		deviceFeatures: feats,
		statusCond:     sim.NewCond(s, name+".status"),
		deviceCfg:      deviceCfg,
		opt:            opt,
		met: ctrlMetrics{
			notifies:      reg.Counter(telemetry.MetricVdevNotifies),
			chains:        reg.Counter(telemetry.MetricVdevChainsServiced),
			irqRaised:     reg.Counter(telemetry.MetricVdevIRQsRaised),
			irqSuppressed: reg.Counter(telemetry.MetricVdevIRQsSuppressed),
			irqCoalesced:  reg.Counter(telemetry.MetricVdevIRQsCoalesced),
		},
	}
	for i := 0; i < nq; i++ {
		q := &queue{
			idx:         i,
			dir:         pers.QueueDir(i),
			sizeMax:     opt.QueueSizeMax,
			size:        opt.QueueSizeMax,
			msixVec:     uint16(i + 1),
			cond:        sim.NewCond(s, fmt.Sprintf("%s.q%d", name, i)),
			hw:          fpga.NewPerfCounter(clk, fmt.Sprintf("%s.q%d.hw", name, i)),
			serviceSpan: s.SpanKind(telemetry.LayerVirtIODevice, "", fmt.Sprintf("q%d.service", i)),
			deliverSpan: s.SpanKind(telemetry.LayerVirtIODevice, "", fmt.Sprintf("q%d.deliver", i)),
			flushName:   fmt.Sprintf("%s.q%d.coalesce", ep.Name(), i),
		}
		c.queues = append(c.queues, q)
		if q.dir == DriverToDevice {
			c.newEngine(q, fmt.Sprintf("%s.q%d.engine", name, i))
		} else {
			q.dl = c.newDelivery(q)
		}
	}

	ep.SetBarHandlers(0, pcie.BarHandlers{Read: c.barRead, Write: c.barWrite})
	return c
}

// EP returns the controller's PCIe endpoint.
func (c *Controller) EP() *pcie.Endpoint { return c.ep }

// Clock returns the fabric clock.
func (c *Controller) Clock() *fpga.Clock { return c.clk }

// Negotiated returns the features the driver accepted.
func (c *Controller) Negotiated() virtio.Feature { return c.driverFeatures }

// Status returns the current device status byte.
func (c *Controller) Status() byte { return c.status }

// QueueCounter returns the hardware perf counter of queue q.
func (c *Controller) QueueCounter(q int) *fpga.PerfCounter { return c.queues[q].hw }

// NotifyCount reports how many doorbell writes the device has received.
func (c *Controller) NotifyCount() int { return c.notifyCount }

// ---- BAR register block -------------------------------------------------

func (c *Controller) barRead(off uint64, size int) uint64 {
	switch {
	case off < notifyOffset:
		return c.commonRead(off, size)
	case off >= isrOffset && off < deviceOffset:
		v := uint64(c.isr)
		c.isr = 0 // ISR reads clear
		return v
	case off >= deviceOffset:
		return c.deviceCfgRead(off-deviceOffset, size)
	}
	return 0
}

func (c *Controller) barWrite(off uint64, size int, v uint64) {
	switch {
	case off < notifyOffset:
		c.commonWrite(off, size, v)
	case off >= notifyOffset && off < isrOffset:
		q := int(off-notifyOffset) / notifyMultiplier
		c.notify(q)
	}
}

// selq returns the selected queue, or nil when queue_select is out of
// range — per spec the driver then reads queue_size == 0.
func (c *Controller) selq() *queue {
	if int(c.queueSel) >= len(c.queues) {
		return nil
	}
	return c.queues[c.queueSel]
}

func (c *Controller) commonRead(off uint64, size int) uint64 {
	switch off {
	case virtio.CommonDeviceFeatureSel:
		return uint64(c.featureSel)
	case virtio.CommonDeviceFeature:
		return uint64(uint32(uint64(c.deviceFeatures) >> (32 * c.featureSel)))
	case virtio.CommonDriverFeatureSel:
		return uint64(c.driverFeatureSel)
	case virtio.CommonDriverFeature:
		return uint64(uint32(uint64(c.driverFeatures) >> (32 * c.driverFeatureSel)))
	case virtio.CommonMSIXConfig:
		return uint64(c.msixConfig)
	case virtio.CommonNumQueues:
		return uint64(len(c.queues))
	case virtio.CommonDeviceStatus:
		return uint64(c.status)
	case virtio.CommonConfigGeneration:
		return uint64(c.cfgGen)
	case virtio.CommonQueueSelect:
		return uint64(c.queueSel)
	}
	q := c.selq()
	if q == nil {
		return 0 // out-of-range queue_select: queue_size reads 0
	}
	switch off {
	case virtio.CommonQueueSize:
		return uint64(q.size)
	case virtio.CommonQueueMSIXVector:
		return uint64(q.msixVec)
	case virtio.CommonQueueEnable:
		if q.enabled {
			return 1
		}
		return 0
	case virtio.CommonQueueNotifyOff:
		return uint64(c.queueSel)
	case virtio.CommonQueueDesc:
		return c.read64(q.desc, size, off, virtio.CommonQueueDesc)
	case virtio.CommonQueueDesc + 4:
		return uint64(uint32(q.desc >> 32))
	case virtio.CommonQueueDriver:
		return c.read64(q.driver, size, off, virtio.CommonQueueDriver)
	case virtio.CommonQueueDriver + 4:
		return uint64(uint32(q.driver >> 32))
	case virtio.CommonQueueDevice:
		return c.read64(q.device, size, off, virtio.CommonQueueDevice)
	case virtio.CommonQueueDevice + 4:
		return uint64(uint32(q.device >> 32))
	}
	return 0
}

func (c *Controller) read64(v uint64, size int, off, base uint64) uint64 {
	if size == 8 {
		return v
	}
	return uint64(uint32(v))
}

func write64(cur uint64, size int, lowHalf bool, v uint64) uint64 {
	switch {
	case size == 8:
		return v
	case lowHalf:
		return cur&^0xffffffff | v&0xffffffff
	default:
		return cur&0xffffffff | (v&0xffffffff)<<32
	}
}

func (c *Controller) commonWrite(off uint64, size int, v uint64) {
	q := c.selq()
	if q == nil && off >= virtio.CommonQueueSize {
		return // writes to queue registers of a nonexistent queue
	}
	switch off {
	case virtio.CommonDeviceFeatureSel:
		c.featureSel = uint32(v)
	case virtio.CommonDriverFeatureSel:
		c.driverFeatureSel = uint32(v)
	case virtio.CommonDriverFeature:
		shift := 32 * c.driverFeatureSel
		mask := uint64(0xffffffff) << shift
		c.driverFeatures = virtio.Feature(uint64(c.driverFeatures)&^mask | (v&0xffffffff)<<shift)
	case virtio.CommonMSIXConfig:
		c.msixConfig = uint16(v)
	case virtio.CommonDeviceStatus:
		c.writeStatus(byte(v))
	case virtio.CommonQueueSelect:
		c.queueSel = uint16(v)
	case virtio.CommonQueueSize:
		if s := uint16(v); s > 0 && s <= q.sizeMax && s&(s-1) == 0 {
			q.size = s
		}
	case virtio.CommonQueueMSIXVector:
		q.msixVec = uint16(v)
	case virtio.CommonQueueEnable:
		if v == 1 && !q.enabled {
			q.enabled = true
			if c.driverFeatures.Has(virtio.FRingPacked) {
				q.dq = virtio.NewPackedDeviceQueue(virtio.PackedLayout{
					QueueSize:   int(q.size),
					Ring:        mem.Addr(q.desc),
					DriverEvent: mem.Addr(q.driver),
					DeviceEvent: mem.Addr(q.device),
				})
			} else {
				sq := virtio.NewDeviceQueue(virtio.RingLayout{
					QueueSize: int(q.size),
					Desc:      mem.Addr(q.desc),
					Avail:     mem.Addr(q.driver),
					Used:      mem.Addr(q.device),
				})
				if c.driverFeatures.Has(virtio.FRingEventIdx) {
					sq.EnableEventIdx()
				}
				q.dq = sq
			}
			q.cond.Broadcast()
		}
	case virtio.CommonQueueDesc:
		q.desc = write64(q.desc, size, true, v)
	case virtio.CommonQueueDesc + 4:
		q.desc = write64(q.desc, 4, false, v)
	case virtio.CommonQueueDriver:
		q.driver = write64(q.driver, size, true, v)
	case virtio.CommonQueueDriver + 4:
		q.driver = write64(q.driver, 4, false, v)
	case virtio.CommonQueueDevice:
		q.device = write64(q.device, size, true, v)
	case virtio.CommonQueueDevice + 4:
		q.device = write64(q.device, 4, false, v)
	}
}

func (c *Controller) writeStatus(v byte) {
	if v == 0 {
		c.reset()
		return
	}
	c.status = v
	c.statusCond.Broadcast()
	if v&virtio.StatusDriverOK != 0 {
		for _, q := range c.queues {
			q.cond.Broadcast()
		}
	}
}

func (c *Controller) reset() {
	c.status = 0
	c.driverFeatures = 0
	c.isr = 0
	for _, q := range c.queues {
		q.enabled = false
		q.dq = nil
		q.kicked = false
		q.coalesced = 0
		q.desc, q.driver, q.device = 0, 0, 0
		q.size = q.sizeMax
	}
}

func (c *Controller) deviceCfgRead(off uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		idx := int(off) + i
		if idx < len(c.deviceCfg) {
			v |= uint64(c.deviceCfg[idx]) << (8 * i)
		}
	}
	return v
}

// notify is the doorbell: wake the queue's engine (or the personality
// process waiting to deliver into a DeviceToDriver queue).
func (c *Controller) notify(qi int) {
	if qi < 0 || qi >= len(c.queues) {
		return
	}
	q := c.queues[qi]
	c.notifyCount++
	c.met.notifies.Inc()
	if q.dir == DriverToDevice && c.status&virtio.StatusDriverOK != 0 &&
		c.status&virtio.StatusNeedsReset == 0 && c.ep.Faults().Fire(faults.NeedsReset) {
		// Device-initiated failure: instead of servicing the doorbell,
		// the controller latches DEVICE_NEEDS_RESET and interrupts the
		// driver through the configuration vector. The doorbell is
		// swallowed — the driver's reset path requeues the buffers.
		c.enterNeedsReset()
		return
	}
	q.kicked = true
	q.cond.Broadcast()
}

// enterNeedsReset moves the device into the DEVICE_NEEDS_RESET state
// (virtio 1.2 §2.1): engines stop picking up work until the driver
// performs a full reset and re-initialization.
func (c *Controller) enterNeedsReset() {
	c.status |= virtio.StatusNeedsReset
	c.isr |= virtio.ISRConfig
	c.statusCond.Broadcast()
	c.ep.RaiseMSIX(int(c.msixConfig))
}

// ---- host-bypass interface (paper §III-A) -------------------------------

// BypassRead lets user logic fetch host memory directly, without any
// VirtIO driver involvement.
func (c *Controller) BypassRead(p *sim.Proc, addr mem.Addr, n int) []byte {
	return c.port.HostRead(p, addr, n)
}

// BypassWrite lets user logic push data into host memory directly.
func (c *Controller) BypassWrite(p *sim.Proc, addr mem.Addr, data []byte) {
	c.port.HostWrite(p, addr, data)
}
