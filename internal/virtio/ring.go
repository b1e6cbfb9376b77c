package virtio

import (
	"fmt"

	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/mem"
)

// Split-ring element sizes.
const (
	descEntrySize  = 16
	usedEntrySize  = 8
	availHeaderLen = 4 // flags + idx
	usedHeaderLen  = 4
)

// RingLayout records where one virtqueue's three areas live in host
// memory. The driver allocates them at device bring-up and hands the
// addresses to the device exactly once — the information-exchange
// design difference the paper highlights in §IV-A.
type RingLayout struct {
	QueueSize int
	Desc      mem.Addr // descriptor table: 16 bytes per entry
	Avail     mem.Addr // avail (driver) area: 4 + 2*qsz (+2 with EVENT_IDX)
	Used      mem.Addr // used (device) area: 4 + 8*qsz (+2 with EVENT_IDX)
}

// AllocRing carves a ring's three areas out of host memory with the
// spec-mandated alignments (16/2/4).
func AllocRing(al *mem.Allocator, queueSize int) RingLayout {
	if queueSize <= 0 || queueSize&(queueSize-1) != 0 {
		panic(fmt.Sprintf("virtio: queue size %d must be a power of two", queueSize))
	}
	return RingLayout{
		QueueSize: queueSize,
		Desc:      al.Alloc(descEntrySize*queueSize, 16),
		Avail:     al.Alloc(availHeaderLen+2*queueSize+2, 2),
		Used:      al.Alloc(usedHeaderLen+usedEntrySize*queueSize+2, 4),
	}
}

// Desc is one descriptor-table entry.
type Desc struct {
	Addr  mem.Addr
	Len   uint32
	Flags uint16
	Next  uint16
}

// BufSeg is one segment of a buffer chain the driver exposes.
type BufSeg struct {
	Addr          mem.Addr
	Len           int
	DeviceWritten bool // true for buffers the device fills (VRING_DESC_F_WRITE)
}

// DriverQueue is the front-end (host CPU) view of a virtqueue. Its
// operations touch host memory directly — the CPU-time cost of ring
// maintenance is charged by the driver models, not here.
type DriverQueue struct {
	mem *mem.Memory
	lay RingLayout

	freeHead uint16
	numFree  int
	tokens   []any    // per-head opaque driver token
	chainLen []uint16 // per-head chain length for free-list reclaim

	availShadow  uint16 // next avail idx to publish
	lastUsedSeen uint16

	eventIdx   bool   // VIRTIO_F_RING_EVENT_IDX negotiated
	lastKicked uint16 // avail idx covered by the last doorbell

	// inflight tracks published-but-unharvested chain heads; only
	// consulted under the fvinvariants build tag (fvassert.Enabled).
	inflight []bool
}

// NewDriverQueue initializes the ring areas (descriptor free list,
// zeroed indices) and returns the driver-side handle.
func NewDriverQueue(m *mem.Memory, lay RingLayout) *DriverQueue {
	q := &DriverQueue{
		mem:      m,
		lay:      lay,
		numFree:  lay.QueueSize,
		tokens:   make([]any, lay.QueueSize),
		chainLen: make([]uint16, lay.QueueSize),
		inflight: make([]bool, lay.QueueSize),
	}
	for i := 0; i < lay.QueueSize; i++ {
		next := uint16(i + 1)
		m.PutU64(q.descAddr(uint16(i)), 0)
		m.PutU32(q.descAddr(uint16(i))+8, 0)
		m.PutU16(q.descAddr(uint16(i))+12, 0)
		m.PutU16(q.descAddr(uint16(i))+14, next)
	}
	m.PutU16(lay.Avail, 0)   // flags
	m.PutU16(lay.Avail+2, 0) // idx
	m.PutU16(lay.Used, 0)
	m.PutU16(lay.Used+2, 0)
	return q
}

// NumFree reports how many descriptors are unallocated.
func (q *DriverQueue) NumFree() int { return q.numFree }

func (q *DriverQueue) descAddr(i uint16) mem.Addr {
	return q.lay.Desc + mem.Addr(i)*descEntrySize
}

// Add exposes a buffer chain to the device and returns the chain head.
// It fails when the ring lacks free descriptors. The chain is published
// in the avail ring immediately (the kick/notify decision is the
// transport's).
func (q *DriverQueue) Add(segs []BufSeg, token any) (uint16, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("virtio: empty buffer chain")
	}
	if len(segs) > q.numFree {
		return 0, fmt.Errorf("virtio: ring full (%d free, need %d)", q.numFree, len(segs))
	}
	head := q.freeHead
	idx := head
	for i, s := range segs {
		a := q.descAddr(idx)
		next := q.mem.U16(a + 14) // free-list successor
		flags := uint16(0)
		if s.DeviceWritten {
			flags |= DescFWrite
		}
		if i != len(segs)-1 {
			flags |= DescFNext
		}
		q.mem.PutU64(a, uint64(s.Addr))
		q.mem.PutU32(a+8, uint32(s.Len))
		q.mem.PutU16(a+12, flags)
		if i != len(segs)-1 {
			q.mem.PutU16(a+14, next)
		}
		idx = next
	}
	q.freeHead = idx
	q.numFree -= len(segs)
	q.tokens[head] = token
	q.chainLen[head] = uint16(len(segs))
	if fvassert.Enabled {
		if q.inflight[head] {
			fvassert.Failf("split ring re-published head %d while in flight", head)
		}
		q.inflight[head] = true
	}

	// Publish: ring[avail_idx % qsz] = head, then bump idx.
	slot := q.lay.Avail + availHeaderLen + mem.Addr(q.availShadow%uint16(q.lay.QueueSize))*2
	q.mem.PutU16(slot, head)
	q.availShadow++
	q.mem.PutU16(q.lay.Avail+2, q.availShadow)
	return head, nil
}

// AddIndirect exposes a buffer chain through a single indirect
// descriptor (VIRTIO_F_RING_INDIRECT_DESC): the per-segment descriptors
// are written into a driver-owned table at tableAddr and the ring
// consumes only one slot, so the device fetches the whole chain with
// one bus read. tableAddr must have room for 16*len(segs) bytes.
func (q *DriverQueue) AddIndirect(segs []BufSeg, token any, tableAddr mem.Addr) (uint16, error) {
	if len(segs) == 0 {
		return 0, fmt.Errorf("virtio: empty buffer chain")
	}
	if q.numFree < 1 {
		return 0, fmt.Errorf("virtio: ring full")
	}
	for i, s := range segs {
		a := tableAddr + mem.Addr(i)*descEntrySize
		flags := uint16(0)
		if s.DeviceWritten {
			flags |= DescFWrite
		}
		next := uint16(0)
		if i != len(segs)-1 {
			flags |= DescFNext
			next = uint16(i + 1)
		}
		q.mem.PutU64(a, uint64(s.Addr))
		q.mem.PutU32(a+8, uint32(s.Len))
		q.mem.PutU16(a+12, flags)
		q.mem.PutU16(a+14, next)
	}
	head := q.freeHead
	a := q.descAddr(head)
	nextFree := q.mem.U16(a + 14)
	q.mem.PutU64(a, uint64(tableAddr))
	q.mem.PutU32(a+8, uint32(len(segs)*descEntrySize))
	q.mem.PutU16(a+12, DescFIndirect)
	q.freeHead = nextFree
	q.numFree--
	q.tokens[head] = token
	q.chainLen[head] = 1
	if fvassert.Enabled {
		if q.inflight[head] {
			fvassert.Failf("split ring re-published indirect head %d while in flight", head)
		}
		q.inflight[head] = true
	}

	slot := q.lay.Avail + availHeaderLen + mem.Addr(q.availShadow%uint16(q.lay.QueueSize))*2
	q.mem.PutU16(slot, head)
	q.availShadow++
	q.mem.PutU16(q.lay.Avail+2, q.availShadow)
	return head, nil
}

// Used is one harvested completion.
type Used struct {
	Token   any
	Written int // bytes the device wrote into device-writable segments
}

// GetUsed harvests one completion from the used ring, reclaiming its
// descriptors. ok is false when the ring has nothing new.
func (q *DriverQueue) GetUsed() (Used, bool) {
	usedIdx := q.mem.U16(q.lay.Used + 2)
	if q.lastUsedSeen == usedIdx {
		return Used{}, false
	}
	slot := q.lay.Used + usedHeaderLen + mem.Addr(q.lastUsedSeen%uint16(q.lay.QueueSize))*usedEntrySize
	head := uint16(q.mem.U32(slot))
	written := int(q.mem.U32(slot + 4))
	q.lastUsedSeen++
	if fvassert.Enabled {
		if int(head) >= q.lay.QueueSize || !q.inflight[head] {
			fvassert.Failf("split ring completion for head %d that is not in flight", head)
		}
		q.inflight[head] = false
	}

	// Reclaim the chain onto the free list.
	n := q.chainLen[head]
	tail := head
	for i := uint16(1); i < n; i++ {
		tail = q.mem.U16(q.descAddr(tail) + 14)
	}
	q.mem.PutU16(q.descAddr(tail)+14, q.freeHead)
	q.freeHead = head
	q.numFree += int(n)

	tok := q.tokens[head]
	q.tokens[head] = nil
	return Used{Token: tok, Written: written}, true
}

// HasUsed reports whether unharvested completions exist.
func (q *DriverQueue) HasUsed() bool {
	return q.lastUsedSeen != q.mem.U16(q.lay.Used+2)
}

// SetNoInterrupt toggles completion-interrupt suppression (the NAPI
// poll-mode optimisation). Without EVENT_IDX it publishes
// VRING_AVAIL_F_NO_INTERRUPT; with EVENT_IDX it moves the used_event
// threshold (set it behind to suppress, to last-seen to re-arm).
func (q *DriverQueue) SetNoInterrupt(on bool) {
	if q.eventIdx {
		if on {
			q.armUsedEvent(q.lastUsedSeen - 1)
		} else {
			q.armUsedEvent(q.lastUsedSeen)
		}
		return
	}
	v := uint16(0)
	if on {
		v = AvailFNoInterrupt
	}
	q.mem.PutU16(q.lay.Avail, v)
}

// DeviceNoNotify reports whether the device has set UsedFNoNotify,
// telling the driver it may skip doorbell writes.
func (q *DriverQueue) DeviceNoNotify() bool {
	return q.mem.U16(q.lay.Used)&UsedFNoNotify != 0
}
