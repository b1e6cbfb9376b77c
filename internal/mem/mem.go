// Package mem models host physical memory as seen over the PCIe bus:
// a flat little-endian byte-addressable store with a simple physically
// contiguous allocator (standing in for the kernel's DMA-coherent
// allocator that both drivers in the paper rely on).
package mem

import (
	"encoding/binary"
	"fmt"
)

// Addr is a host physical / bus address.
type Addr uint64

// pageShift sets the 4 KiB page granularity of Memory's demand paging.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// Memory is a flat physical memory. The zero value is unusable; create
// with New. Methods panic on out-of-range accesses — in the modeled
// system those are DMA bugs, and failing loudly is what a real bus
// error would do to the experiment.
//
// Storage is demand-paged: the page table holds one slot per 4 KiB
// page, and a page is allocated on its first write. A page that was
// never written reads as zeros, and reading it allocates nothing. Pages
// are never freed (the model never frees memory), so a warm session
// stops allocating once every ring and buffer has been touched. The
// modeled capacity is the full size either way; only the host-side
// cost follows the pages the model uses.
type Memory struct {
	size  int
	pages []*page
}

// New returns a memory of the given size in bytes.
func New(size int) *Memory {
	if size <= 0 {
		panic("mem: non-positive size")
	}
	return &Memory{size: size, pages: make([]*page, (size+pageMask)>>pageShift)}
}

// Size reports the memory size in bytes.
func (m *Memory) Size() int { return m.size }

func (m *Memory) check(a Addr, n int) {
	if n < 0 || uint64(a) > uint64(m.size) || uint64(a)+uint64(n) > uint64(m.size) {
		panic(fmt.Sprintf("mem: access [%#x, %#x+%d) out of range (size %#x)", uint64(a), uint64(a), n, m.size))
	}
}

// writable returns the page holding a, allocating it on first use.
func (m *Memory) writable(a Addr) *page {
	pg := m.pages[a>>pageShift]
	if pg == nil {
		pg = new(page)
		m.pages[a>>pageShift] = pg
	}
	return pg
}

// u8 reads one in-range byte; an absent page reads as zero.
func (m *Memory) u8(a Addr) byte {
	if pg := m.pages[a>>pageShift]; pg != nil {
		return pg[a&pageMask]
	}
	return 0
}

// Read copies n bytes starting at a into a fresh slice.
func (m *Memory) Read(a Addr, n int) []byte {
	m.check(a, n)
	out := make([]byte, n)
	m.copyOut(a, out)
	return out
}

// ReadInto copies len(dst) bytes starting at a into dst.
func (m *Memory) ReadInto(a Addr, dst []byte) {
	m.check(a, len(dst))
	m.copyOut(a, dst)
}

// copyOut copies an in-range span page by page, zeroing the parts of
// dst that fall on absent pages.
func (m *Memory) copyOut(a Addr, dst []byte) {
	for len(dst) > 0 {
		off := int(a & pageMask)
		var n int
		if pg := m.pages[a>>pageShift]; pg != nil {
			n = copy(dst, pg[off:])
		} else {
			n = min(len(dst), pageSize-off)
			clear(dst[:n])
		}
		dst = dst[n:]
		a += Addr(n)
	}
}

// Write copies src into memory at a.
func (m *Memory) Write(a Addr, src []byte) {
	m.check(a, len(src))
	for len(src) > 0 {
		n := copy(m.writable(a)[a&pageMask:], src)
		src = src[n:]
		a += Addr(n)
	}
}

// Fill sets n bytes at a to v. Zero-filling an absent page leaves it
// absent: it already reads as zeros.
func (m *Memory) Fill(a Addr, n int, v byte) {
	m.check(a, n)
	for n > 0 {
		off := int(a & pageMask)
		c := min(n, pageSize-off)
		pg := m.pages[a>>pageShift]
		if pg == nil && v != 0 {
			pg = m.writable(a)
		}
		if pg != nil {
			b := pg[off : off+c]
			for i := range b {
				b[i] = v
			}
		}
		n -= c
		a += Addr(c)
	}
}

// U8 reads one byte.
func (m *Memory) U8(a Addr) byte {
	m.check(a, 1)
	return m.u8(a)
}

// PutU8 writes one byte.
func (m *Memory) PutU8(a Addr, v byte) {
	m.check(a, 1)
	m.writable(a)[a&pageMask] = v
}

// U16 reads a little-endian 16-bit value (VirtIO structures are LE).
func (m *Memory) U16(a Addr) uint16 {
	m.check(a, 2)
	if off := a & pageMask; off <= pageSize-2 {
		if pg := m.pages[a>>pageShift]; pg != nil {
			return binary.LittleEndian.Uint16(pg[off:])
		}
		return 0
	}
	return uint16(m.u8(a)) | uint16(m.u8(a+1))<<8
}

// PutU16 writes a little-endian 16-bit value.
func (m *Memory) PutU16(a Addr, v uint16) {
	m.check(a, 2)
	if off := a & pageMask; off <= pageSize-2 {
		binary.LittleEndian.PutUint16(m.writable(a)[off:], v)
		return
	}
	m.writable(a)[a&pageMask] = byte(v)
	m.writable(a + 1)[(a+1)&pageMask] = byte(v >> 8)
}

// U32 reads a little-endian 32-bit value.
func (m *Memory) U32(a Addr) uint32 {
	m.check(a, 4)
	if off := a & pageMask; off <= pageSize-4 {
		if pg := m.pages[a>>pageShift]; pg != nil {
			return binary.LittleEndian.Uint32(pg[off:])
		}
		return 0
	}
	var v uint32
	for i := Addr(0); i < 4; i++ {
		v |= uint32(m.u8(a+i)) << (8 * i)
	}
	return v
}

// PutU32 writes a little-endian 32-bit value.
func (m *Memory) PutU32(a Addr, v uint32) {
	m.check(a, 4)
	if off := a & pageMask; off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.writable(a)[off:], v)
		return
	}
	for i := Addr(0); i < 4; i++ {
		m.writable(a + i)[(a+i)&pageMask] = byte(v >> (8 * i))
	}
}

// U64 reads a little-endian 64-bit value.
func (m *Memory) U64(a Addr) uint64 {
	return uint64(m.U32(a)) | uint64(m.U32(a+4))<<32
}

// PutU64 writes a little-endian 64-bit value.
func (m *Memory) PutU64(a Addr, v uint64) {
	m.PutU32(a, uint32(v))
	m.PutU32(a+4, uint32(v>>32))
}

// Allocator hands out physically contiguous, aligned regions from a
// Memory, in the role of dma_alloc_coherent. It is a bump allocator
// with explicit Free support omitted by design: the experiments
// allocate ring and buffer memory once at device bring-up, exactly as
// the drivers under study do.
type Allocator struct {
	mem  *Memory
	next Addr
	end  Addr
}

// NewAllocator returns an allocator over m's range [start, start+size).
func NewAllocator(m *Memory, start Addr, size int) *Allocator {
	if size < 0 || uint64(start)+uint64(size) > uint64(m.Size()) {
		panic("mem: allocator range out of bounds")
	}
	return &Allocator{mem: m, next: start, end: start + Addr(size)}
}

// Alloc returns the address of a zeroed region of n bytes aligned to
// align (which must be a power of two; 0 or 1 means unaligned).
func (al *Allocator) Alloc(n int, align int) Addr {
	if n < 0 {
		panic("mem: negative alloc")
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	a := (al.next + Addr(align-1)) &^ Addr(align-1)
	if uint64(a)+uint64(n) > uint64(al.end) {
		panic(fmt.Sprintf("mem: allocator exhausted (want %d bytes at %#x, end %#x)", n, uint64(a), uint64(al.end)))
	}
	al.next = a + Addr(n)
	al.mem.Fill(a, n, 0)
	return a
}
