package virtio

import (
	"fmt"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

// DMA is the device's costed path to host memory. The FPGA-side VirtIO
// controller supplies an implementation backed by the XDMA engine's
// card port, so every ring access below takes real bus time — this is
// the extra hardware work that makes the VirtIO breakdown hardware-
// heavy in the paper's Figure 4. Reads land in a caller-supplied
// buffer, so the per-packet ring path allocates nothing.
type DMA interface {
	ReadInto(p *sim.Proc, a mem.Addr, dst []byte)
	Write(p *sim.Proc, a mem.Addr, data []byte)
}

// DeviceQueue is the device-side (FPGA) view of one virtqueue. All
// accesses go through DMA and block the calling fabric process.
//
// Each queue owns scratch buffers reused across per-packet operations,
// so methods must be called from one fabric process at a time (the
// controller's engine discipline), and slices returned by FetchChain /
// NextChain are valid only until the next call of the same kind on
// this queue.
//
//fvlint:hotpath
type DeviceQueue struct {
	dma DMA
	lay RingLayout

	lastAvail uint16 // next avail slot to consume
	usedIdx   uint16 // next used idx to publish
	eventIdx  bool   // VIRTIO_F_RING_EVENT_IDX negotiated

	u16Scratch  [2]byte             // bus reads of 16-bit ring fields
	idxScratch  [2]byte             // used-index publication
	flagScratch [2]byte             // flags / avail-event publication
	descScratch [descEntrySize]byte // one descriptor-table entry
	elemScratch [usedEntrySize]byte // one used-ring element
	chainBuf    []Desc              // FetchChain result storage
	indBuf      []byte              // raw indirect-table staging
}

// NewDeviceQueue returns the device-side handle for a ring whose
// addresses the driver transferred during queue setup.
func NewDeviceQueue(dma DMA, lay RingLayout) *DeviceQueue {
	return &DeviceQueue{dma: dma, lay: lay}
}

// readU16 fetches one 16-bit ring field.
func (q *DeviceQueue) readU16(p *sim.Proc, a mem.Addr) uint16 {
	q.dma.ReadInto(p, a, q.u16Scratch[:])
	return u16le(q.u16Scratch[:])
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

// FetchAvailIdx reads the driver's published avail index.
func (q *DeviceQueue) FetchAvailIdx(p *sim.Proc) uint16 {
	return q.readU16(p, q.lay.Avail+2)
}

// Pending reports (via one DMA read) how many chains the driver has
// exposed that the device has not yet consumed.
func (q *DeviceQueue) Pending(p *sim.Proc) int {
	return int(q.FetchAvailIdx(p) - q.lastAvail)
}

// NextAvailHead consumes the next avail-ring slot, returning the chain
// head. Callers must ensure a chain is pending (Pending > 0).
func (q *DeviceQueue) NextAvailHead(p *sim.Proc) uint16 {
	slot := q.lay.Avail + availHeaderLen + mem.Addr(q.lastAvail%uint16(q.lay.QueueSize))*2
	head := q.readU16(p, slot)
	q.lastAvail++
	return head
}

// FetchChain walks the descriptor chain starting at head, fetching each
// descriptor-table entry over the bus. An indirect descriptor resolves
// with a single read of the whole indirect table — the bus-efficiency
// win VIRTIO_F_RING_INDIRECT_DESC exists for. The returned slice is
// queue-owned scratch, valid until the next FetchChain on this queue.
func (q *DeviceQueue) FetchChain(p *sim.Proc, head uint16) ([]Desc, error) {
	out := q.chainBuf[:0]
	idx := head
	for {
		if int(idx) >= q.lay.QueueSize {
			return nil, fmt.Errorf("virtio: descriptor index %d outside queue of %d", idx, q.lay.QueueSize)
		}
		if len(out) > q.lay.QueueSize {
			return nil, fmt.Errorf("virtio: descriptor chain longer than queue (loop?)")
		}
		q.dma.ReadInto(p, q.lay.Desc+mem.Addr(idx)*descEntrySize, q.descScratch[:])
		d := decodeDesc(q.descScratch[:])
		if d.Flags&DescFIndirect != 0 {
			if len(out) != 0 || d.Flags&DescFNext != 0 {
				return nil, fmt.Errorf("virtio: indirect descriptor must be the sole ring entry")
			}
			return q.fetchIndirect(p, d)
		}
		out = append(out, d)
		q.chainBuf = out
		if d.Flags&DescFNext == 0 {
			return out, nil
		}
		idx = d.Next
	}
}

func decodeDesc(raw []byte) Desc {
	return Desc{
		Addr:  mem.Addr(u64le(raw)),
		Len:   u32le(raw[8:]),
		Flags: u16le(raw[12:]),
		Next:  u16le(raw[14:]),
	}
}

// fetchIndirect reads the whole indirect table in one bus transfer and
// decodes the chain it contains.
func (q *DeviceQueue) fetchIndirect(p *sim.Proc, ind Desc) ([]Desc, error) {
	n := int(ind.Len)
	if n <= 0 || n%descEntrySize != 0 {
		return nil, fmt.Errorf("virtio: indirect table length %d not a descriptor multiple", n)
	}
	count := n / descEntrySize
	// Bound the table before fetching it: the spec caps an indirect
	// chain at the queue size, and an unchecked 32-bit length would let
	// a corrupt descriptor demand a gigabyte bus read.
	if count > q.lay.QueueSize {
		return nil, fmt.Errorf("virtio: indirect table of %d entries exceeds queue size %d", count, q.lay.QueueSize)
	}
	q.indBuf = growBytes(q.indBuf, n)
	q.dma.ReadInto(p, ind.Addr, q.indBuf)
	raw := q.indBuf
	out := q.chainBuf[:0]
	idx := 0
	for {
		if idx < 0 || idx >= count || len(out) > count {
			return nil, fmt.Errorf("virtio: indirect chain escapes its table")
		}
		d := decodeDesc(raw[idx*descEntrySize:])
		if d.Flags&DescFIndirect != 0 {
			return nil, fmt.Errorf("virtio: nested indirect descriptor")
		}
		out = append(out, d)
		q.chainBuf = out
		if d.Flags&DescFNext == 0 {
			return out, nil
		}
		idx = int(d.Next)
	}
}

// ReadChainInto gathers the device-readable segments into buf (reusing
// its capacity, reallocating only on growth) and returns the gathered
// bytes; the controller's per-packet engine passes a per-queue scratch
// buffer, so the gather allocates nothing in steady state.
func (q *DeviceQueue) ReadChainInto(p *sim.Proc, chain []Desc, buf []byte) []byte {
	out := buf[:0]
	for _, d := range chain {
		if d.Flags&DescFWrite == 0 {
			out = appendRead(p, q, out, d)
		}
	}
	return out
}

// appendRead grows out by d.Len bytes and fills them from host memory.
func appendRead(p *sim.Proc, q *DeviceQueue, out []byte, d Desc) []byte {
	n, need := len(out), int(d.Len)
	if cap(out)-n < need {
		grown := make([]byte, n, n+need)
		copy(grown, out)
		out = grown
	}
	out = out[:n+need]
	q.dma.ReadInto(p, d.Addr, out[n:])
	return out
}

// WriteChain scatters data into the device-writable segments of chain
// and returns the number of bytes written (for the used entry).
func (q *DeviceQueue) WriteChain(p *sim.Proc, chain []Desc, data []byte) int {
	written := 0
	for _, d := range chain {
		if d.Flags&DescFWrite == 0 {
			continue
		}
		if len(data) == 0 {
			break
		}
		n := int(d.Len)
		if n > len(data) {
			n = len(data)
		}
		q.dma.Write(p, d.Addr, data[:n])
		data = data[n:]
		written += n
	}
	return written
}

// PushUsed publishes a completed chain: write the used element, then
// the incremented used index (two posted writes, ordered by the bus).
func (q *DeviceQueue) PushUsed(p *sim.Proc, head uint16, written int) {
	slot := q.lay.Used + usedHeaderLen + mem.Addr(q.usedIdx%uint16(q.lay.QueueSize))*usedEntrySize
	elem := q.elemScratch[:]
	putU32 := func(b []byte, v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	putU32(elem, uint32(head))
	putU32(elem[4:], uint32(written))
	q.dma.Write(p, slot, elem)
	q.usedIdx++
	q.idxScratch[0], q.idxScratch[1] = byte(q.usedIdx), byte(q.usedIdx>>8)
	q.dma.Write(p, q.lay.Used+2, q.idxScratch[:])
}

// InterruptSuppressed reads the driver's avail flags and reports
// whether VRING_AVAIL_F_NO_INTERRUPT is set.
func (q *DeviceQueue) InterruptSuppressed(p *sim.Proc) bool {
	return q.readU16(p, q.lay.Avail)&AvailFNoInterrupt != 0
}
