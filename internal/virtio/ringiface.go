package virtio

import "fpgavirtio/internal/sim"

// FRingPacked is the packed-virtqueue feature bit (VirtIO 1.2 §2.8).
const FRingPacked Feature = 1 << 34

// ChainToken identifies one in-flight chain on a device ring so its
// completion can be published later: the split ring needs the head
// descriptor index, the packed ring the buffer ID and slot count.
type ChainToken struct {
	Head uint16
	Len  int
}

// DeviceRing is the device-side interface over both virtqueue formats.
// All methods run in a fabric process and cost bus time through the
// ring's DMA path.
type DeviceRing interface {
	// HasPending reports, via one bus read, whether the driver has
	// exposed at least one chain the device has not consumed.
	HasPending(p *sim.Proc) bool
	// NextChain consumes the next pending chain (HasPending must have
	// reported true) and returns its descriptors. The slice is
	// ring-owned scratch, valid until the next NextChain call.
	NextChain(p *sim.Proc) ([]Desc, ChainToken, error)
	// ReadChainInto gathers the device-readable segment contents into
	// buf, reusing its capacity (growing it only when too small), and
	// returns the gathered bytes; a nil buf gathers into a fresh one.
	ReadChainInto(p *sim.Proc, chain []Desc, buf []byte) []byte
	// WriteChain scatters data into device-writable segments.
	WriteChain(p *sim.Proc, chain []Desc, data []byte) int
	// Complete publishes the chain's completion.
	Complete(p *sim.Proc, tok ChainToken, written int)
	// ShouldInterrupt decides, after Complete, whether to raise the
	// queue's interrupt (reads the driver's suppression state fresh).
	ShouldInterrupt(p *sim.Proc) bool
	// ShouldInterruptSince is ShouldInterrupt for a batch: it considers
	// the n most recent completions rather than only the last one, so an
	// event-index threshold crossed mid-batch still raises the
	// interrupt. Interrupt coalescing must use this when flushing.
	ShouldInterruptSince(p *sim.Proc, n int) bool
	// PublishIdleHint tells the driver how to wake the device when it
	// is about to go idle (avail_event / event suppression write);
	// a no-op where the format has nothing to publish.
	PublishIdleHint(p *sim.Proc)
}

// DriverRing is the driver-side interface over both virtqueue formats.
// Methods touch host memory directly; CPU cost is the caller's.
type DriverRing interface {
	Add(segs []BufSeg, token any) (uint16, error)
	GetUsed() (Used, bool)
	HasUsed() bool
	NumFree() int
	SetNoInterrupt(on bool)
	// NeedKick reports whether the device asked for a doorbell for the
	// chains added since KickDone.
	NeedKick() bool
	KickDone()
}

// ---- split-ring adapters (DeviceQueue -> DeviceRing) ---------------------

// HasPending implements DeviceRing for the split format.
func (q *DeviceQueue) HasPending(p *sim.Proc) bool { return q.Pending(p) > 0 }

// NextChain implements DeviceRing for the split format: one read for
// the avail-ring slot plus one per descriptor (or one for a whole
// indirect table).
func (q *DeviceQueue) NextChain(p *sim.Proc) ([]Desc, ChainToken, error) {
	head := q.NextAvailHead(p)
	chain, err := q.FetchChain(p, head)
	return chain, ChainToken{Head: head, Len: len(chain)}, err
}

// Complete implements DeviceRing for the split format.
func (q *DeviceQueue) Complete(p *sim.Proc, tok ChainToken, written int) {
	q.PushUsed(p, tok.Head, written)
}

// ShouldInterrupt implements the DeviceRing decision using the queue's
// internal used-index bookkeeping.
func (q *DeviceQueue) ShouldInterrupt(p *sim.Proc) bool {
	return q.ShouldInterruptAt(p, q.usedIdx-1, q.usedIdx)
}

// ShouldInterruptSince implements DeviceRing for the split format: the
// event threshold is checked against the whole [usedIdx-n, usedIdx)
// span of a coalesced batch.
func (q *DeviceQueue) ShouldInterruptSince(p *sim.Proc, n int) bool {
	if n < 1 {
		n = 1
	}
	return q.ShouldInterruptAt(p, q.usedIdx-uint16(n), q.usedIdx)
}

// PublishIdleHint implements DeviceRing: in event-index mode the device
// publishes its doorbell threshold; the flags mode needs nothing.
func (q *DeviceQueue) PublishIdleHint(p *sim.Proc) {
	if q.eventIdx {
		q.PublishAvailEvent(p, q.lastAvail)
	}
}

var (
	_ DeviceRing = (*DeviceQueue)(nil)
	_ DriverRing = (*DriverQueue)(nil)
)
