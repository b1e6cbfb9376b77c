package virtio

import (
	"fmt"

	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/mem"
)

// This file implements the packed virtqueue format (VirtIO 1.2 §2.8):
// a single ring of read-write descriptors replaces the split format's
// three areas. Availability is signalled in-band through per-descriptor
// AVAIL/USED bits interpreted against free-running wrap counters, so
// the device discovers work and its parameters with a single bus read
// per descriptor — no separate avail-ring lookup.

// Packed descriptor flag bits (in addition to NEXT/WRITE/INDIRECT).
const (
	PackedDescFAvail = 1 << 7
	PackedDescFUsed  = 1 << 15
)

// Event-suppression structure flag values (§2.8.10).
const (
	PackedEventFlagEnable  = 0
	PackedEventFlagDisable = 1
)

// PackedLayout records where a packed virtqueue's areas live: the
// descriptor ring and the two 4-byte event suppression structures.
type PackedLayout struct {
	QueueSize   int
	Ring        mem.Addr // 16 bytes per descriptor
	DriverEvent mem.Addr // written by driver, read by device
	DeviceEvent mem.Addr // written by device, read by driver
}

// AllocPackedRing carves the packed ring areas out of host memory.
func AllocPackedRing(al *mem.Allocator, queueSize int) PackedLayout {
	if queueSize <= 0 || queueSize&(queueSize-1) != 0 {
		panic(fmt.Sprintf("virtio: queue size %d must be a power of two", queueSize))
	}
	return PackedLayout{
		QueueSize:   queueSize,
		Ring:        al.Alloc(descEntrySize*queueSize, 16),
		DriverEvent: al.Alloc(4, 4),
		DeviceEvent: al.Alloc(4, 4),
	}
}

func (l PackedLayout) slotAddr(i int) mem.Addr {
	return l.Ring + mem.Addr(i)*descEntrySize
}

// packedChain records one chain, indexed by buffer ID.
type packedChain struct {
	token    any
	n        int
	inFlight bool
}

// PackedDriverQueue is the driver-side packed virtqueue.
type PackedDriverQueue struct {
	mem *mem.Memory
	lay PackedLayout

	nextIdx  int  // next slot to fill
	wrap     bool // driver avail wrap counter (starts true)
	usedIdx  int  // next slot to poll for completion
	usedWrap bool // driver used wrap counter (starts true)
	numFree  int

	chains []packedChain // by buffer ID, which is below QueueSize

	kickArmed bool // a doorbell is owed for chains added since KickDone
}

// NewPackedDriverQueue initializes the ring (all descriptors unavailable)
// and the event suppression structures (notifications enabled).
func NewPackedDriverQueue(m *mem.Memory, lay PackedLayout) *PackedDriverQueue {
	q := &PackedDriverQueue{
		mem:      m,
		lay:      lay,
		wrap:     true,
		usedWrap: true,
		numFree:  lay.QueueSize,
		chains:   make([]packedChain, lay.QueueSize),
	}
	for i := 0; i < lay.QueueSize; i++ {
		m.Fill(lay.slotAddr(i), descEntrySize, 0)
	}
	m.PutU32(lay.DriverEvent, PackedEventFlagEnable)
	m.PutU32(lay.DeviceEvent, PackedEventFlagEnable)
	return q
}

// NumFree implements DriverRing.
func (q *PackedDriverQueue) NumFree() int { return q.numFree }

// availBits returns the AVAIL/USED bit pattern marking a descriptor
// available under wrap counter w: AVAIL == w, USED == !w.
func availBits(w bool) uint16 {
	if w {
		return PackedDescFAvail
	}
	return PackedDescFUsed
}

// usedBits returns the pattern marking a descriptor used under wrap
// counter w: AVAIL == USED == w.
func usedBits(w bool) uint16 {
	if w {
		return PackedDescFAvail | PackedDescFUsed
	}
	return 0
}

// Add implements DriverRing: write the chain's descriptors into
// consecutive slots (the head's flags last, as the visibility barrier),
// with the buffer ID carried in the final descriptor.
func (q *PackedDriverQueue) Add(segs []BufSeg, token any) (uint16, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("virtio: empty buffer chain")
	}
	if len(segs) > q.numFree {
		return 0, fmt.Errorf("virtio: packed ring full (%d free, need %d)", q.numFree, len(segs))
	}
	id := uint16(q.nextIdx) // head slot doubles as the buffer ID
	idx, wrap := q.nextIdx, q.wrap
	var headAddr mem.Addr
	var headFlags uint16
	for i, s := range segs {
		a := q.lay.slotAddr(idx)
		flags := availBits(wrap)
		if s.DeviceWritten {
			flags |= DescFWrite
		}
		if i != len(segs)-1 {
			flags |= DescFNext
		}
		q.mem.PutU64(a, uint64(s.Addr))
		q.mem.PutU32(a+8, uint32(s.Len))
		q.mem.PutU16(a+12, id)
		if i == 0 {
			// Defer the head's flags: the device must not observe the
			// chain until every descriptor is in place.
			headAddr, headFlags = a+14, flags
		} else {
			q.mem.PutU16(a+14, flags)
		}
		idx++
		if idx == q.lay.QueueSize {
			idx = 0
			wrap = !wrap
		}
	}
	q.mem.PutU16(headAddr, headFlags)
	q.nextIdx, q.wrap = idx, wrap
	q.numFree -= len(segs)
	if fvassert.Enabled {
		if q.chains[id].inFlight {
			fvassert.Failf("packed ring re-published buffer id %d while in flight", id)
		}
	}
	q.chains[id] = packedChain{token: token, n: len(segs), inFlight: true}
	q.kickArmed = true
	return id, nil
}

// peekUsed reads the descriptor at the poll position and reports
// whether the device has marked it used.
func (q *PackedDriverQueue) peekUsed() (uint16, uint32, bool) {
	a := q.lay.slotAddr(q.usedIdx)
	flags := q.mem.U16(a + 14)
	if flags&(PackedDescFAvail|PackedDescFUsed) != usedBits(q.usedWrap) {
		return 0, 0, false
	}
	return q.mem.U16(a + 12), q.mem.U32(a + 8), true
}

// HasUsed implements DriverRing.
func (q *PackedDriverQueue) HasUsed() bool {
	_, _, ok := q.peekUsed()
	return ok
}

// GetUsed implements DriverRing: harvest one completion and reclaim its
// slots.
func (q *PackedDriverQueue) GetUsed() (Used, bool) {
	id, written, ok := q.peekUsed()
	if !ok {
		return Used{}, false
	}
	if int(id) >= len(q.chains) || !q.chains[id].inFlight {
		panic(fmt.Sprintf("virtio: packed completion for unknown buffer id %d", id))
	}
	ch := q.chains[id]
	q.chains[id] = packedChain{}
	q.usedIdx += ch.n
	if q.usedIdx >= q.lay.QueueSize {
		q.usedIdx -= q.lay.QueueSize
		q.usedWrap = !q.usedWrap
	}
	q.numFree += ch.n
	return Used{Token: ch.token, Written: int(written)}, true
}

// SetNoInterrupt implements DriverRing via the driver event structure.
func (q *PackedDriverQueue) SetNoInterrupt(on bool) {
	v := uint32(PackedEventFlagEnable)
	if on {
		v = PackedEventFlagDisable
	}
	q.mem.PutU32(q.lay.DriverEvent, v)
}

// NeedKick implements DriverRing: honour the device event structure.
func (q *PackedDriverQueue) NeedKick() bool {
	if !q.kickArmed {
		return false
	}
	return q.mem.U32(q.lay.DeviceEvent) == PackedEventFlagEnable
}

// KickDone implements DriverRing.
func (q *PackedDriverQueue) KickDone() { q.kickArmed = false }

// ---- device side ----------------------------------------------------------

// PackedDeviceQueue is the device-side packed virtqueue; its ops
// (DeviceRing) run as cursors over costed bus transfers. Like
// DeviceQueue it holds only the ring's device-side state, so one op at
// a time may consume or publish.
//
//fvlint:hotpath
type PackedDeviceQueue struct {
	lay PackedLayout

	idx      int  // next slot to poll for available descriptors
	wrap     bool // device avail wrap counter
	usedIdx  int  // next slot to write completions into
	usedWrap bool // device used wrap counter

	// pending caches the head descriptor the last HasPending read, so
	// NextChain does not pay for it twice.
	pending    Desc
	pendingID  uint16
	hasPending bool
}

// NewPackedDeviceQueue returns the device-side handle.
func NewPackedDeviceQueue(lay PackedLayout) *PackedDeviceQueue {
	return &PackedDeviceQueue{lay: lay, wrap: true, usedWrap: true}
}

// Where a packed-ring op resumes.
const (
	packedPending     = iota // read the next slot
	packedPendingDone        // check its availability bits
	packedHead               // start a chain: the cached head or a slot read
	packedHeadDone           // check the read head
	packedDesc               // read the next chained slot
	packedDescDone           // check it
	packedUsed               // write the used descriptor
	packedUsedDone           // skip the chain's slots
	packedIRQ                // read the driver event structure
	packedIRQDone            // decide
	packedHint               // write the device event structure
	packedHintDone           // it is written
)

// decodeSlot decodes the descriptor slot in c's scratch. The packed
// layout differs from the split one: the buffer ID sits at offset 12
// and the flags at offset 14 (there is no next field — chains are
// positional).
func decodeSlot(c *Cursor) (Desc, uint16) {
	raw := c.scratch[:]
	d := Desc{
		Addr:  mem.Addr(u64le(raw)),
		Len:   u32le(raw[8:]),
		Flags: u16le(raw[14:]),
	}
	return d, u16le(raw[12:])
}

// isAvail reports whether flags mark the descriptor available under the
// device's wrap counter.
func (q *PackedDeviceQueue) isAvail(flags uint16) bool {
	return flags&(PackedDescFAvail|PackedDescFUsed) == availBits(q.wrap)
}

// HasPending implements DeviceRing: read the next slot and check its
// availability bits — the packed format's single-read work discovery.
func (q *PackedDeviceQueue) HasPending(c *Cursor) { c.begin(q, packedPending) }

// NextChain implements DeviceRing: consume the pending chain. The head
// was already fetched by HasPending; only chained descriptors cost
// further reads.
func (q *PackedDeviceQueue) NextChain(c *Cursor) { c.begin(q, packedHead) }

// Complete implements DeviceRing: write one used descriptor carrying
// the buffer ID and written length (a single posted write), then skip
// the chain's remaining slots.
func (q *PackedDeviceQueue) Complete(c *Cursor, tok ChainToken, written int) {
	c.begin(q, packedUsed)
	c.Token, c.Written = tok, written
}

// ShouldInterrupt implements DeviceRing via the driver event
// structure: its flag is a level, not an index threshold, so the batch
// size n is irrelevant.
func (q *PackedDeviceQueue) ShouldInterrupt(c *Cursor, n int) { c.begin(q, packedIRQ) }

// PublishIdleHint implements DeviceRing: (re-)enable doorbells in the
// device event structure before the engine parks.
func (q *PackedDeviceQueue) PublishIdleHint(c *Cursor) { c.begin(q, packedHint) }

func (q *PackedDeviceQueue) step(c *Cursor) bool {
	switch c.pc {
	case packedPending:
		c.pc = packedPendingDone
		return bus.Read(c, q.lay.slotAddr(q.idx), c.scratch[:])
	case packedPendingDone:
		d, id := decodeSlot(c)
		q.hasPending = q.isAvail(d.Flags)
		if q.hasPending {
			q.pending, q.pendingID = d, id
		}
		c.Pending = q.hasPending
		return c.done()
	case packedUsed, packedUsedDone:
		return q.pushUsed(c)
	case packedIRQ:
		c.pc = packedIRQDone
		return bus.Read(c, q.lay.DriverEvent, c.scratch[:4])
	case packedIRQDone:
		c.Interrupt = u32le(c.scratch[:4]) == PackedEventFlagEnable
		return c.done()
	case packedHint:
		putU32(c.scratch[:4], PackedEventFlagEnable)
		c.pc = packedHintDone
		return bus.Write(c, q.lay.DeviceEvent, c.scratch[:4])
	case packedHintDone:
		return c.done()
	}
	return q.walk(c)
}

// walk consumes the chain at the poll position, one slot read per
// chained descriptor.
func (q *PackedDeviceQueue) walk(c *Cursor) bool {
	for {
		switch c.pc {
		case packedHead:
			c.Err = nil
			if !q.hasPending {
				c.pc = packedHeadDone
				return bus.Read(c, q.lay.slotAddr(q.idx), c.scratch[:])
			}
			c.Chain = append(c.chainBuf[:0], q.pending)
			c.Token.Head = q.pendingID
			c.pc = packedDesc
		case packedHeadDone:
			d, id := decodeSlot(c)
			if !q.isAvail(d.Flags) {
				return c.fail(fmt.Errorf("virtio: packed NextChain with nothing pending"))
			}
			c.Chain = append(c.chainBuf[:0], d)
			c.Token.Head = id
			c.pc = packedDesc
		case packedDesc:
			if c.i = len(c.Chain); c.i == 1 {
				q.hasPending = false
				c.chainBuf = c.Chain
				q.advance()
			}
			if c.Chain[c.i-1].Flags&DescFNext == 0 {
				return c.chainDone()
			}
			if c.i > q.lay.QueueSize {
				return c.fail(fmt.Errorf("virtio: packed chain longer than queue"))
			}
			c.pc = packedDescDone
			return bus.Read(c, q.lay.slotAddr(q.idx), c.scratch[:])
		case packedDescDone:
			d, id := decodeSlot(c)
			// advance has already flipped the wrap counter where the
			// chain crossed the ring boundary, so a plain isAvail check
			// accepts descriptors written under the wrap value in force
			// at their slot.
			if !q.isAvail(d.Flags) {
				return c.fail(fmt.Errorf("virtio: packed chain truncated at slot %d", q.idx))
			}
			c.Token.Head = id
			c.Chain = append(c.Chain, d)
			c.chainBuf = c.Chain
			q.advance()
			c.pc = packedDesc
		}
	}
}

// advance moves the poll position one slot, flipping the wrap counter
// at the ring boundary.
func (q *PackedDeviceQueue) advance() {
	q.idx++
	if q.idx == q.lay.QueueSize {
		q.idx = 0
		q.wrap = !q.wrap
	}
}

// pushUsed writes the used descriptor, then skips the chain's slots.
func (q *PackedDeviceQueue) pushUsed(c *Cursor) bool {
	if c.pc == packedUsed {
		a := q.lay.slotAddr(q.usedIdx)
		buf := c.scratch[:]
		clear(buf)
		putU32(buf[8:], uint32(c.Written))
		buf[12], buf[13] = byte(c.Token.Head), byte(c.Token.Head>>8)
		fl := usedBits(q.usedWrap)
		buf[14], buf[15] = byte(fl), byte(fl>>8)
		c.pc = packedUsedDone
		return bus.Write(c, a, buf)
	}
	q.usedIdx += c.Token.Len
	if q.usedIdx >= q.lay.QueueSize {
		q.usedIdx -= q.lay.QueueSize
		q.usedWrap = !q.usedWrap
	}
	return c.done()
}
