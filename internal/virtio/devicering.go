package virtio

import (
	"fmt"

	"fpgavirtio/internal/mem"
)

// DeviceQueue is the device-side (FPGA) view of one split virtqueue:
// its ops (DeviceRing) run as cursors over costed bus transfers.
//
// The queue holds only the ring's device-side indices, so one op at a
// time may consume or publish (the controller's engine discipline);
// ShouldInterrupt and PublishIdleHint may run beside it on their own
// cursor.
//
//fvlint:hotpath
type DeviceQueue struct {
	lay RingLayout

	lastAvail uint16 // next avail slot to consume
	usedIdx   uint16 // next used idx to publish
	eventIdx  bool   // VIRTIO_F_RING_EVENT_IDX negotiated
}

// NewDeviceQueue returns the device-side handle for a ring whose
// addresses the driver transferred during queue setup.
func NewDeviceQueue(lay RingLayout) *DeviceQueue {
	return &DeviceQueue{lay: lay}
}

// growBytes returns b resized to n bytes, reallocating only when the
// capacity is insufficient.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func u16le(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func u32le(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func u64le(b []byte) uint64 { return uint64(u32le(b)) | uint64(u32le(b[4:]))<<32 }

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// Where a split-ring op resumes.
const (
	splitPending     = iota // read the avail index
	splitPendingDone        // compare it with the last consumed slot
	splitHead               // read the next avail-ring slot
	splitHeadDone           // consume it and start the chain walk
	splitDesc               // read the next descriptor-table entry
	splitDescDone           // decode it
	splitIndirect           // decode the fetched indirect table
	splitUsedElem           // write the used element
	splitUsedIdx            // write the incremented used index
	splitUsedDone           // the used index is written
	splitIRQ                // read the driver's suppression state
	splitIRQDone            // decide
	splitHint               // write avail_event
	splitHintDone           // avail_event is written
)

// HasPending implements DeviceRing: one read of the avail index.
func (q *DeviceQueue) HasPending(c *Cursor) { c.begin(q, splitPending) }

// NextChain implements DeviceRing for the split format: one read for
// the avail-ring slot plus one per descriptor, or one for a whole
// indirect table — the bus-efficiency win VIRTIO_F_RING_INDIRECT_DESC
// exists for.
func (q *DeviceQueue) NextChain(c *Cursor) { c.begin(q, splitHead) }

// Complete implements DeviceRing for the split format: write the used
// element, then the incremented used index (two posted writes, ordered
// by the bus).
func (q *DeviceQueue) Complete(c *Cursor, tok ChainToken, written int) {
	c.begin(q, splitUsedElem)
	c.Token, c.Written = tok, written
}

// ShouldInterrupt implements DeviceRing for the split format: in
// event-index mode it reads the driver's used_event threshold and
// checks it against the whole [usedIdx-n, usedIdx) span; otherwise it
// reads the avail flags. The read happens after the used-index write,
// preserving the spec's race-free ordering.
func (q *DeviceQueue) ShouldInterrupt(c *Cursor, n int) {
	c.begin(q, splitIRQ)
	c.old, c.idx = q.usedIdx-uint16(max(n, 1)), q.usedIdx
}

// PublishIdleHint implements DeviceRing: in event-index mode the device
// publishes its doorbell threshold, "kick me when avail moves past the
// last slot consumed"; the flags mode needs nothing.
func (q *DeviceQueue) PublishIdleHint(c *Cursor) {
	if !q.eventIdx {
		c.done()
		return
	}
	c.begin(q, splitHint)
	c.idx = q.lastAvail
}

func (q *DeviceQueue) step(c *Cursor) bool {
	switch c.pc {
	case splitPending, splitPendingDone:
		return q.pending(c)
	case splitUsedElem, splitUsedIdx, splitUsedDone:
		return q.pushUsed(c)
	case splitIRQ, splitIRQDone, splitHint, splitHintDone:
		return q.suppression(c)
	}
	return q.walk(c)
}

func (q *DeviceQueue) pending(c *Cursor) bool {
	if c.pc == splitPending {
		c.pc = splitPendingDone
		return bus.Read(c, q.lay.Avail+2, c.scratch[:2])
	}
	c.Pending = u16le(c.scratch[:2]) != q.lastAvail
	return c.done()
}

// walk consumes the next avail-ring slot and walks the descriptor chain
// at its head. An indirect descriptor resolves with a single read of
// the whole table.
func (q *DeviceQueue) walk(c *Cursor) bool {
	for {
		switch c.pc {
		case splitHead:
			c.pc = splitHeadDone
			slot := q.lay.Avail + availHeaderLen + mem.Addr(q.lastAvail%uint16(q.lay.QueueSize))*2
			return bus.Read(c, slot, c.scratch[:2])
		case splitHeadDone:
			c.idx = u16le(c.scratch[:2])
			q.lastAvail++
			c.Token = ChainToken{Head: c.idx}
			c.Chain, c.Err = c.chainBuf[:0], nil
			c.pc = splitDesc
		case splitDesc:
			if int(c.idx) >= q.lay.QueueSize {
				return c.fail(fmt.Errorf("virtio: descriptor index %d outside queue of %d", c.idx, q.lay.QueueSize))
			}
			if len(c.Chain) > q.lay.QueueSize {
				return c.fail(fmt.Errorf("virtio: descriptor chain longer than queue (loop?)"))
			}
			c.pc = splitDescDone
			return bus.Read(c, q.lay.Desc+mem.Addr(c.idx)*descEntrySize, c.scratch[:])
		case splitDescDone:
			d := decodeDesc(c.scratch[:])
			if d.Flags&DescFIndirect != 0 {
				return q.fetchIndirect(c, d)
			}
			c.Chain = append(c.Chain, d)
			c.chainBuf = c.Chain
			if d.Flags&DescFNext == 0 {
				return c.chainDone()
			}
			c.idx = d.Next
			c.pc = splitDesc
		case splitIndirect:
			return c.decodeIndirect()
		}
	}
}

// fail ends a NextChain with err and no chain.
func (c *Cursor) fail(err error) bool {
	c.Chain, c.Token.Len, c.Err = nil, 0, err
	return c.done()
}

// chainDone ends a NextChain with the chain walked.
func (c *Cursor) chainDone() bool {
	c.Token.Len = len(c.Chain)
	return c.done()
}

func decodeDesc(raw []byte) Desc {
	return Desc{
		Addr:  mem.Addr(u64le(raw)),
		Len:   u32le(raw[8:]),
		Flags: u16le(raw[12:]),
		Next:  u16le(raw[14:]),
	}
}

// fetchIndirect checks an indirect descriptor and reads its whole
// table in one bus transfer.
func (q *DeviceQueue) fetchIndirect(c *Cursor, ind Desc) bool {
	if len(c.Chain) != 0 || ind.Flags&DescFNext != 0 {
		return c.fail(fmt.Errorf("virtio: indirect descriptor must be the sole ring entry"))
	}
	n := int(ind.Len)
	if n <= 0 || n%descEntrySize != 0 {
		return c.fail(fmt.Errorf("virtio: indirect table length %d not a descriptor multiple", n))
	}
	// Bound the table before fetching it: the spec caps an indirect
	// chain at the queue size, and an unchecked 32-bit length would let
	// a corrupt descriptor demand a gigabyte bus read.
	if count := n / descEntrySize; count > q.lay.QueueSize {
		return c.fail(fmt.Errorf("virtio: indirect table of %d entries exceeds queue size %d", count, q.lay.QueueSize))
	}
	c.indBuf = growBytes(c.indBuf, n)
	c.pc = splitIndirect
	return bus.Read(c, ind.Addr, c.indBuf)
}

// decodeIndirect decodes the chain the fetched indirect table holds.
func (c *Cursor) decodeIndirect() bool {
	raw := c.indBuf
	count := len(raw) / descEntrySize
	idx := 0
	for {
		if idx < 0 || idx >= count || len(c.Chain) > count {
			return c.fail(fmt.Errorf("virtio: indirect chain escapes its table"))
		}
		d := decodeDesc(raw[idx*descEntrySize:])
		if d.Flags&DescFIndirect != 0 {
			return c.fail(fmt.Errorf("virtio: nested indirect descriptor"))
		}
		c.Chain = append(c.Chain, d)
		c.chainBuf = c.Chain
		if d.Flags&DescFNext == 0 {
			return c.chainDone()
		}
		idx = int(d.Next)
	}
}

// pushUsed publishes a completed chain: the used element, then the
// incremented used index.
func (q *DeviceQueue) pushUsed(c *Cursor) bool {
	switch c.pc {
	case splitUsedElem:
		slot := q.lay.Used + usedHeaderLen + mem.Addr(q.usedIdx%uint16(q.lay.QueueSize))*usedEntrySize
		elem := c.scratch[:usedEntrySize]
		putU32(elem, uint32(c.Token.Head))
		putU32(elem[4:], uint32(c.Written))
		c.pc = splitUsedIdx
		return bus.Write(c, slot, elem)
	case splitUsedIdx:
		q.usedIdx++
		c.scratch[8], c.scratch[9] = byte(q.usedIdx), byte(q.usedIdx>>8)
		c.pc = splitUsedDone
		return bus.Write(c, q.lay.Used+2, c.scratch[8:10])
	}
	return c.done()
}
