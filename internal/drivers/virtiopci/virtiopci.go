// Package virtiopci is the modern VirtIO PCI transport as the kernel
// implements it: it discovers the VirtIO configuration structures by
// walking the PCI capability chain, drives the device status state
// machine, negotiates features, and sets up virtqueues. Because the
// FPGA controller presents a spec-compliant interface, this driver is
// exactly the unmodified front-end the paper runs against the device
// (§II-C).
package virtiopci

import (
	"fmt"

	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// Driver-side CPU costs of ring maintenance (virtqueue_add/get_buf).
const (
	addChainBaseCost = sim.Duration(220) * sim.Nanosecond
	addSegCost       = sim.Duration(70) * sim.Nanosecond
	// GetUsedCost is charged per completion a harvest takes.
	GetUsedCost = sim.Duration(160) * sim.Nanosecond
)

// Transport is one bound virtio-pci function.
type Transport struct {
	Host *hostos.Host
	EP   *pcie.Endpoint

	commonBase uint64
	notifyBase uint64
	isrBase    uint64
	deviceBase uint64
	notifyMult uint32

	deviceFeatures virtio.Feature
	features       virtio.Feature // negotiated
	numQueues      int

	doorbells, kicksElided      *telemetry.Counter
	descsPosted, descsCompleted *telemetry.Counter

	// mmioRetries counts config-space read retries and status rewrites
	// issued while recovering from injected completion faults. Only
	// registered when the endpoint has a fault injector armed, so the
	// zero-fault metric snapshot is unchanged.
	mmioRetries *telemetry.Counter
}

// Probe binds to an enumerated VirtIO function: verify IDs, walk the
// capability chain (config reads over the bus), and locate the four
// configuration windows.
func Probe(p *sim.Proc, h *hostos.Host, info *pcie.DeviceInfo) (*Transport, error) {
	if info.VendorID != virtio.PCIVendorID {
		return nil, fmt.Errorf("virtiopci: not a virtio device: vendor %#x", info.VendorID)
	}
	reg := h.Metrics()
	t := &Transport{
		Host:           h,
		EP:             info.EP,
		doorbells:      reg.Counter(telemetry.MetricVirtioDoorbells),
		kicksElided:    reg.Counter(telemetry.MetricVirtioKicksElided),
		descsPosted:    reg.Counter(telemetry.MetricVirtioDescsPosted),
		descsCompleted: reg.Counter(telemetry.MetricVirtioDescsCompleted),
	}
	if info.EP.Faults() != nil {
		t.mmioRetries = reg.Counter(telemetry.MetricRecoveryMMIORetries)
	}
	// Walk the capability list the way pci_find_capability does.
	status := h.RC.ConfigRead32(p, info.EP, pcie.CfgCommand) >> 16
	if status&pcie.StatusCapList == 0 {
		return nil, fmt.Errorf("virtiopci: device has no capability list")
	}
	ptr := int(h.RC.ConfigRead32(p, info.EP, pcie.CfgCapPtr) & 0xff)
	for ptr != 0 {
		hdr := h.RC.ConfigRead32(p, info.EP, ptr)
		id := byte(hdr)
		next := int(hdr >> 8 & 0xff)
		if id == pcie.CapIDVendor {
			// Read the capability body (up to 20 bytes => 5 dwords).
			var body []byte
			for i := 0; i < 5; i++ {
				w := h.RC.ConfigRead32(p, info.EP, ptr+4*i)
				body = append(body, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
			}
			cap, err := virtio.DecodePCICap(body[2:])
			if err != nil {
				return nil, err
			}
			base := info.BAR[cap.Bar] + uint64(cap.Offset)
			switch cap.CfgType {
			case virtio.CfgTypeCommon:
				t.commonBase = base
			case virtio.CfgTypeNotify:
				t.notifyBase = base
				t.notifyMult = cap.NotifyOffMultiplier
			case virtio.CfgTypeISR:
				t.isrBase = base
			case virtio.CfgTypeDevice:
				t.deviceBase = base
			}
		}
		ptr = next
	}
	if t.commonBase == 0 || t.notifyBase == 0 {
		return nil, fmt.Errorf("virtiopci: missing common/notify capability")
	}
	return t, nil
}

// common-config accessors (MMIO through the root complex).

// readRetry is an MMIO read that tolerates injected completion faults.
// The bus surfaces a poisoned, timed-out, or stalled completion as
// all-ones (what a real root port returns on an unsupported-request or
// completer-abort), so an all-ones value from a register that can never
// legitimately be all-ones is retried with doubling backoff. Six
// retries starting at 1 us (1+2+4+8+16+32 us) outlast the injected
// stall window, after which the last value is returned as-is.
func (t *Transport) readRetry(p *sim.Proc, addr uint64, size int) uint64 {
	v := t.Host.RC.MMIORead(p, addr, size)
	if t.EP.Faults() == nil {
		return v
	}
	ones := uint64(1)<<(8*uint(size)) - 1
	delay := sim.Us(1)
	for i := 0; i < 6 && v == ones; i++ {
		t.mmioRetries.Inc()
		p.Sleep(delay)
		delay *= 2
		v = t.Host.RC.MMIORead(p, addr, size)
	}
	return v
}

func (t *Transport) cr8(p *sim.Proc, off uint64) byte {
	return byte(t.readRetry(p, t.commonBase+off, 1))
}
func (t *Transport) cw8(p *sim.Proc, off uint64, v byte) {
	t.Host.RC.MMIOWrite(p, t.commonBase+off, 1, uint64(v))
}
func (t *Transport) cr16(p *sim.Proc, off uint64) uint16 {
	return uint16(t.readRetry(p, t.commonBase+off, 2))
}
func (t *Transport) cw16(p *sim.Proc, off uint64, v uint16) {
	t.Host.RC.MMIOWrite(p, t.commonBase+off, 2, uint64(v))
}
func (t *Transport) cr32(p *sim.Proc, off uint64) uint32 {
	return uint32(t.readRetry(p, t.commonBase+off, 4))
}
func (t *Transport) cw32(p *sim.Proc, off uint64, v uint32) {
	t.Host.RC.MMIOWrite(p, t.commonBase+off, 4, uint64(v))
}

// statusWrite writes the device status register and, under fault
// injection, verifies the write landed — a dropped posted TLP would
// otherwise lose a bring-up step silently and wedge negotiation.
func (t *Transport) statusWrite(p *sim.Proc, st byte) {
	t.cw8(p, virtio.CommonDeviceStatus, st)
	if t.EP.Faults() == nil {
		return
	}
	for i := 0; i < 6; i++ {
		if t.cr8(p, virtio.CommonDeviceStatus) == st {
			return
		}
		t.mmioRetries.Inc()
		t.cw8(p, virtio.CommonDeviceStatus, st)
	}
}

// Reset writes status 0 and waits for the device to acknowledge. Under
// fault injection the zero write is reissued periodically in case the
// original TLP was dropped.
func (t *Transport) Reset(p *sim.Proc) {
	t.cw8(p, virtio.CommonDeviceStatus, 0)
	faulted := t.EP.Faults() != nil
	for i := 0; t.cr8(p, virtio.CommonDeviceStatus) != 0; i++ {
		p.Sleep(sim.Us(1))
		if faulted && i%4 == 3 {
			t.mmioRetries.Inc()
			t.cw8(p, virtio.CommonDeviceStatus, 0)
		}
	}
}

// ReadStatus reads the device status byte — the driver's NEEDS_RESET
// detection point (virtio 1.2 §2.1).
func (t *Transport) ReadStatus(p *sim.Proc) byte {
	return t.cr8(p, virtio.CommonDeviceStatus)
}

// Negotiate performs the status/feature dance up to FEATURES_OK.
func (t *Transport) Negotiate(p *sim.Proc, want virtio.Feature) (virtio.Feature, error) {
	t.Reset(p)
	t.statusWrite(p, virtio.StatusAcknowledge)
	t.statusWrite(p, virtio.StatusAcknowledge|virtio.StatusDriver)

	t.cw32(p, virtio.CommonDeviceFeatureSel, 0)
	lo := t.cr32(p, virtio.CommonDeviceFeature)
	t.cw32(p, virtio.CommonDeviceFeatureSel, 1)
	hi := t.cr32(p, virtio.CommonDeviceFeature)
	t.deviceFeatures = virtio.Feature(uint64(hi)<<32 | uint64(lo))

	if !t.deviceFeatures.Has(virtio.FVersion1) {
		return 0, fmt.Errorf("virtiopci: device does not offer VERSION_1")
	}
	t.features = t.deviceFeatures & (want | virtio.FVersion1)

	t.cw32(p, virtio.CommonDriverFeatureSel, 0)
	t.cw32(p, virtio.CommonDriverFeature, uint32(t.features))
	t.cw32(p, virtio.CommonDriverFeatureSel, 1)
	t.cw32(p, virtio.CommonDriverFeature, uint32(uint64(t.features)>>32))

	st := virtio.StatusAcknowledge | virtio.StatusDriver | virtio.StatusFeaturesOK
	t.statusWrite(p, byte(st))
	if t.cr8(p, virtio.CommonDeviceStatus)&virtio.StatusFeaturesOK == 0 {
		return 0, fmt.Errorf("virtiopci: device rejected features %v", t.features)
	}
	t.numQueues = int(t.cr16(p, virtio.CommonNumQueues))
	return t.features, nil
}

// DriverOK completes bring-up.
func (t *Transport) DriverOK(p *sim.Proc) {
	st := virtio.StatusAcknowledge | virtio.StatusDriver | virtio.StatusFeaturesOK | virtio.StatusDriverOK
	t.statusWrite(p, byte(st))
}

// ReadDeviceConfig reads n bytes from the device-specific window.
func (t *Transport) ReadDeviceConfig(p *sim.Proc, off uint64, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte(t.Host.RC.MMIORead(p, t.deviceBase+off+uint64(i), 1))
	}
	return out
}

// ReadISR reads (and thereby clears) the ISR status byte. The retry on
// a faulted completion is safe: a poisoned read never reaches the
// device, so the ISR bits are not consumed by the failed attempt.
func (t *Transport) ReadISR(p *sim.Proc) byte {
	return byte(t.readRetry(p, t.isrBase, 1))
}

// VQ is one configured virtqueue: the driver-side ring (split or
// packed, behind the DriverRing interface) plus its doorbell address.
type VQ struct {
	ring       virtio.DriverRing
	split      *virtio.DriverQueue // nil when the packed format is in use
	tr         *Transport
	Index      int
	size       int
	notifyAddr uint64

	// dead marks a queue torn down by a device reset. The ring memory is
	// gone from the device's point of view; any further use is a driver
	// bug the fvinvariants build turns into a panic.
	dead bool

	// segScratch backs AddChain1's one-element chain. It is filled after
	// the CPU-cost yield and consumed in the same runnable interval, so
	// concurrent posters on the same queue cannot observe a torn fill.
	segScratch [1]virtio.BufSeg
}

// MarkDead flags the queue as torn down by a reset; subsequent ring
// operations trip the use-after-reset invariant under -tags fvinvariants.
func (vq *VQ) MarkDead() { vq.dead = true }

// Size reports the negotiated queue size.
func (vq *VQ) Size() int { return vq.size }

// Packed reports whether the queue uses the packed format.
func (vq *VQ) Packed() bool { return vq.split == nil }

// NumFree reports unallocated descriptors.
func (vq *VQ) NumFree() int { return vq.ring.NumFree() }

// HasUsed reports unharvested completions.
func (vq *VQ) HasUsed() bool { return vq.ring.HasUsed() }

// GetUsed harvests one completion without CPU-cost accounting (callers
// in ISR context prefer Harvest).
func (vq *VQ) GetUsed() (virtio.Used, bool) { return vq.ring.GetUsed() }

// SetNoInterrupt toggles completion-interrupt suppression.
func (vq *VQ) SetNoInterrupt(on bool) { vq.ring.SetNoInterrupt(on) }

// Add exposes a chain without CPU-cost accounting (prefer AddChain).
func (vq *VQ) Add(segs []virtio.BufSeg, token any) (uint16, error) {
	return vq.ring.Add(segs, token)
}

// NeedKick reports whether a doorbell is owed.
func (vq *VQ) NeedKick() bool { return vq.ring.NeedKick() }

// KickDone records that added chains were notified (or intentionally not).
func (vq *VQ) KickDone() { vq.ring.KickDone() }

// AddIndirect exposes a chain through an indirect table (split rings
// only; the packed format here does not negotiate INDIRECT_DESC).
func (vq *VQ) AddIndirect(segs []virtio.BufSeg, token any, table mem.Addr) (uint16, error) {
	if vq.split == nil {
		return 0, fmt.Errorf("virtiopci: indirect descriptors unavailable on a packed queue")
	}
	return vq.split.AddIndirect(segs, token, table)
}

// SetupQueue allocates a ring of the given size in host memory, hands
// its addresses to the device, assigns MSI-X vector index+1, and
// enables the queue — the one-time information exchange that lets the
// runtime path get away with a single doorbell write (paper §IV-A).
// With VIRTIO_F_RING_PACKED negotiated the three address registers
// carry the packed ring and its two event-suppression structures.
func (t *Transport) SetupQueue(p *sim.Proc, index int, size int) (*VQ, error) {
	t.cw16(p, virtio.CommonQueueSelect, uint16(index))
	max := int(t.cr16(p, virtio.CommonQueueSize))
	if max == 0 {
		return nil, fmt.Errorf("virtiopci: queue %d does not exist", index)
	}
	if size > max {
		size = max
	}
	t.cw16(p, virtio.CommonQueueSize, uint16(size))

	vq := &VQ{tr: t, Index: index, size: size}
	var descA, driverA, deviceA uint64
	if t.features.Has(virtio.FRingPacked) {
		lay := virtio.AllocPackedRing(t.Host.Alloc, size)
		vq.ring = virtio.NewPackedDriverQueue(t.Host.Mem, lay)
		descA, driverA, deviceA = uint64(lay.Ring), uint64(lay.DriverEvent), uint64(lay.DeviceEvent)
	} else {
		lay := virtio.AllocRing(t.Host.Alloc, size)
		dq := virtio.NewDriverQueue(t.Host.Mem, lay)
		if t.features.Has(virtio.FRingEventIdx) {
			dq.EnableEventIdx()
		}
		vq.ring, vq.split = dq, dq
		descA, driverA, deviceA = uint64(lay.Desc), uint64(lay.Avail), uint64(lay.Used)
	}

	t.cw32(p, virtio.CommonQueueDesc, uint32(descA))
	t.cw32(p, virtio.CommonQueueDesc+4, uint32(descA>>32))
	t.cw32(p, virtio.CommonQueueDriver, uint32(driverA))
	t.cw32(p, virtio.CommonQueueDriver+4, uint32(driverA>>32))
	t.cw32(p, virtio.CommonQueueDevice, uint32(deviceA))
	t.cw32(p, virtio.CommonQueueDevice+4, uint32(deviceA>>32))
	t.cw16(p, virtio.CommonQueueMSIXVector, uint16(index+1))

	notifyOff := t.cr16(p, virtio.CommonQueueNotifyOff)
	t.cw16(p, virtio.CommonQueueEnable, 1)
	vq.notifyAddr = t.notifyBase + uint64(notifyOff)*uint64(t.notifyMult)
	return vq, nil
}

// RegisterIRQ binds a blocking handler to the queue's MSI-X vector
// (hostos.Host.RegisterIRQ).
func (vq *VQ) RegisterIRQ(handler func(p *sim.Proc)) {
	vq.tr.Host.RegisterIRQ(vq.tr.EP, vq.Index+1, handler)
}

// RegisterIRQSteps binds a step-form handler to the queue's MSI-X
// vector (hostos.Host.RegisterIRQSteps).
func (vq *VQ) RegisterIRQSteps(handler func(irq *hostos.IRQ) sim.Duration) {
	vq.tr.Host.RegisterIRQSteps(vq.tr.EP, vq.Index+1, handler)
}

// AddChain exposes a buffer chain, charging the driver's CPU cost.
func (vq *VQ) AddChain(p *sim.Proc, segs []virtio.BufSeg, token any) error {
	if fvassert.Enabled && vq.dead {
		fvassert.Failf("virtiopci: AddChain on queue %d after reset began", vq.Index)
	}
	vq.tr.Host.CPUWork(p, addChainBaseCost+sim.Duration(len(segs))*addSegCost)
	_, err := vq.ring.Add(segs, token)
	if err == nil {
		vq.tr.descsPosted.Add(int64(len(segs)))
	}
	return err
}

// AddChain1 posts a one-segment chain without materialising a slice —
// the allocation-free form for per-packet TX and RX-repost paths.
func (vq *VQ) AddChain1(p *sim.Proc, seg virtio.BufSeg, token any) error {
	vq.tr.Host.CPUWork(p, vq.BeginAdd1())
	return vq.FinishAdd1(seg, token)
}

// BeginAdd1 starts AddChain1 for a step machine and returns the CPU
// time to charge before FinishAdd1 posts the chain.
func (vq *VQ) BeginAdd1() sim.Duration {
	if fvassert.Enabled && vq.dead {
		fvassert.Failf("virtiopci: AddChain1 on queue %d after reset began", vq.Index)
	}
	return addChainBaseCost + addSegCost
}

// FinishAdd1 posts the one-segment chain BeginAdd1 charged for.
func (vq *VQ) FinishAdd1(seg virtio.BufSeg, token any) error {
	vq.segScratch[0] = seg
	_, err := vq.ring.Add(vq.segScratch[:], token)
	if err == nil {
		vq.tr.descsPosted.Inc()
	}
	return err
}

// Harvest drains completed chains into a fresh slice, charging
// per-completion CPU cost.
func (vq *VQ) Harvest(p *sim.Proc) []virtio.Used {
	return vq.HarvestInto(p, nil)
}

// HarvestInto drains completed chains into buf's capacity — the
// allocation-free form for per-packet ISR paths, which keep the
// returned slice as scratch for the next harvest.
func (vq *VQ) HarvestInto(p *sim.Proc, buf []virtio.Used) []virtio.Used {
	vq.BeginHarvest()
	out := buf[:0]
	for {
		u, ok := vq.NextUsed()
		if !ok {
			return out
		}
		vq.tr.Host.CPUWork(p, GetUsedCost)
		out = append(out, u)
	}
}

// BeginHarvest starts a harvest for a step machine, which then takes
// completions with NextUsed, charging GetUsedCost after each one taken.
func (vq *VQ) BeginHarvest() {
	if fvassert.Enabled && vq.dead {
		fvassert.Failf("virtiopci: HarvestInto on queue %d after reset began", vq.Index)
	}
}

// NextUsed takes one completion for a harvest, counting it.
func (vq *VQ) NextUsed() (virtio.Used, bool) {
	u, ok := vq.ring.GetUsed()
	if ok {
		vq.tr.descsCompleted.Inc()
	}
	return u, ok
}

// Kick rings the queue's doorbell: a single posted MMIO write — the
// entire runtime signalling cost of the VirtIO TX path.
func (vq *VQ) Kick(p *sim.Proc) {
	vq.BeginKick(true)
	p.Sleep(vq.tr.Host.RC.MMIOWriteCPU())
	vq.FinishKick()
}

// KickIfNeeded honours the device's notification hints: the used-flags
// no-notify bit, the avail_event threshold in EVENT_IDX mode, or the
// packed event structure.
func (vq *VQ) KickIfNeeded(p *sim.Proc) {
	if vq.BeginKick(false) {
		p.Sleep(vq.tr.Host.RC.MMIOWriteCPU())
		vq.FinishKick()
	}
}

// BeginKick starts Kick (force) or KickIfNeeded for a step machine. It
// reports whether a doorbell goes out: the step then sleeps the MMIO
// write's CPU time (pcie.RootComplex.MMIOWriteCPU) and calls
// FinishKick. An elided kick is recorded here.
func (vq *VQ) BeginKick(force bool) bool {
	if !force && !vq.ring.NeedKick() {
		vq.tr.kicksElided.Inc()
		vq.ring.KickDone()
		return false
	}
	if fvassert.Enabled && vq.dead {
		fvassert.Failf("virtiopci: Kick on queue %d after reset began", vq.Index)
	}
	vq.tr.doorbells.Inc()
	return true
}

// FinishKick posts the doorbell write BeginKick started.
func (vq *VQ) FinishKick() {
	vq.tr.Host.RC.PostMMIOWrite(vq.notifyAddr, 2, uint64(vq.Index))
	vq.KickDone()
}

// AllocBuffer carves a DMA-able buffer from host memory.
func (t *Transport) AllocBuffer(n int) mem.Addr {
	return t.Host.Alloc.Alloc(n, 64)
}
