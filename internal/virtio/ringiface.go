package virtio

import "fpgavirtio/internal/mem"

// FRingPacked is the packed-virtqueue feature bit (VirtIO 1.2 §2.8).
const FRingPacked Feature = 1 << 34

// ChainToken identifies one in-flight chain on a device ring so its
// completion can be published later: the split ring needs the head
// descriptor index, the packed ring the buffer ID and slot count.
type ChainToken struct {
	Head uint16
	Len  int
}

// Xfer is one bus transfer of a device-ring op: a read of len(Buf)
// bytes of host memory at Addr into Buf or, when Write is set, a write
// of Buf to Addr. The FPGA-side controller makes it through the XDMA
// engine's card port, so every ring access takes real bus time — the
// extra hardware work that makes the VirtIO breakdown hardware-heavy
// in the paper's Figure 4.
type Xfer struct {
	Addr  mem.Addr
	Buf   []byte
	Write bool
}

// DeviceRing is the device-side (FPGA) interface over both virtqueue
// formats. Each op starts on a caller-owned Cursor and runs as a
// resumable cursor over the bus transfers it needs: the caller makes
// each transfer Cursor.Next yields, in order, and calls Next again once
// that transfer has completed. When Next reports false the op has
// finished and its result is in the cursor. The ring never blocks, so
// a blocking fabric process and a step machine drive the same ring
// logic.
type DeviceRing interface {
	// HasPending checks, with one bus read, whether the driver has
	// exposed at least one chain the device has not consumed; the
	// answer lands in Cursor.Pending.
	HasPending(c *Cursor)
	// NextChain consumes the next pending chain (HasPending must have
	// reported true). Its descriptors land in Cursor.Chain, which is
	// cursor-owned scratch valid until the cursor's next NextChain, its
	// token in Cursor.Token and a malformed chain's error in
	// Cursor.Err.
	NextChain(c *Cursor)
	// Complete publishes the chain's completion.
	Complete(c *Cursor, tok ChainToken, written int)
	// ShouldInterrupt decides, after Complete, whether to raise the
	// queue's interrupt for the n most recent completions, reading the
	// driver's suppression state fresh; the answer lands in
	// Cursor.Interrupt. Counting the whole batch keeps an event-index
	// threshold crossed mid-batch from being missed, so interrupt
	// coalescing passes the number of completions it held.
	ShouldInterrupt(c *Cursor, n int)
	// PublishIdleHint tells the driver how to wake the device when it
	// is about to go idle (avail_event / event suppression write); it
	// makes no transfer where the format has nothing to publish.
	PublishIdleHint(c *Cursor)

	// step yields the next transfer of the ring op c runs.
	step(c *Cursor) bool
}

// Cursor is one device-ring op in progress. It owns the op's bus
// scratch and its results, so ops on one ring driven from separate
// cursors share no buffer. The zero Cursor is idle; starting an op
// replaces the one it ran before.
//
//fvlint:hotpath
type Cursor struct {
	ring  DeviceRing // ring of a ring op, nil for a gather or scatter
	op    uint8      // opIdle, opRing, opGather or opScatter
	pc    uint8      // where the op resumes, private to the op
	i     int        // position within the chain or indirect table
	idx   uint16     // split: next descriptor index; used-index span end
	old   uint16     // split: used-index span start
	chain []Desc     // the gather's or scatter's chain
	data  []byte     // the scatter's bytes still to write

	scratch  [descEntrySize]byte // one descriptor, index, flags or event word
	chainBuf []Desc              // Chain's storage
	indBuf   []byte              // raw indirect-table staging

	// Xfer is the transfer Next yielded last.
	Xfer Xfer

	// Results, by the op that sets them. Complete keeps its token and
	// written count in Token and Written too.
	Pending   bool       // HasPending
	Chain     []Desc     // NextChain
	Token     ChainToken // NextChain
	Err       error      // NextChain
	Data      []byte     // ReadChainInto
	Written   int        // WriteChain
	Interrupt bool       // ShouldInterrupt
}

// Cursor op kinds.
const (
	opIdle = iota
	opRing
	opGather
	opScatter
)

// begin starts a ring op of r at resume point pc.
func (c *Cursor) begin(r DeviceRing, pc uint8) {
	c.ring, c.op, c.pc = r, opRing, pc
}

// done ends the op.
func (c *Cursor) done() bool {
	c.op = opIdle
	return false
}

// Next puts the op's next bus transfer in c.Xfer and reports true, or
// reports false once the op has finished. Calling it again reports
// that the transfer has completed: a read's bytes are in its buffer, a
// write has been made.
func (c *Cursor) Next() bool {
	switch c.op {
	case opRing:
		return c.ring.step(c)
	case opGather:
		return c.gather()
	case opScatter:
		return c.scatter()
	}
	return false
}

// bus yields the transfers of the ring ops. Its method names and
// argument order are the store and load shapes the ringorder analyzer
// tracks, so the publish order of the device-side ring ops stays
// checked.
var bus xfers

type xfers struct{}

// Read yields a transfer reading len(dst) bytes at a into dst.
func (xfers) Read(c *Cursor, a mem.Addr, dst []byte) bool {
	c.Xfer = Xfer{Addr: a, Buf: dst}
	return true
}

// Write yields a transfer writing data to a.
func (xfers) Write(c *Cursor, a mem.Addr, data []byte) bool {
	c.Xfer = Xfer{Addr: a, Buf: data, Write: true}
	return true
}

// ReadChainInto gathers the device-readable segment contents of chain
// into buf, reusing its capacity (growing it only when too small); the
// gathered bytes land in Cursor.Data. A nil buf gathers into a fresh
// one. Gather and scatter are the same in both ring formats.
func (c *Cursor) ReadChainInto(chain []Desc, buf []byte) {
	c.ring, c.op, c.chain, c.i, c.Data = nil, opGather, chain, 0, buf[:0]
}

func (c *Cursor) gather() bool {
	for c.i < len(c.chain) {
		d := c.chain[c.i]
		c.i++
		if d.Flags&DescFWrite != 0 {
			continue
		}
		out := c.Data
		n, need := len(out), int(d.Len)
		if cap(out)-n < need {
			grown := make([]byte, n, n+need)
			copy(grown, out)
			out = grown
		}
		c.Data = out[:n+need]
		return bus.Read(c, d.Addr, c.Data[n:])
	}
	c.chain = nil
	return c.done()
}

// WriteChain scatters data into the device-writable segments of chain;
// the number of bytes written (for the used entry) lands in
// Cursor.Written.
func (c *Cursor) WriteChain(chain []Desc, data []byte) {
	c.ring, c.op, c.chain, c.i, c.data, c.Written = nil, opScatter, chain, 0, data, 0
}

func (c *Cursor) scatter() bool {
	for c.i < len(c.chain) && len(c.data) > 0 {
		d := c.chain[c.i]
		c.i++
		if d.Flags&DescFWrite == 0 {
			continue
		}
		n := min(int(d.Len), len(c.data))
		bus.Write(c, d.Addr, c.data[:n])
		c.data = c.data[n:]
		c.Written += n
		return true
	}
	c.chain, c.data = nil, nil
	return c.done()
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

var (
	_ DeviceRing = (*DeviceQueue)(nil)
	_ DeviceRing = (*PackedDeviceQueue)(nil)
	_ DriverRing = (*DriverQueue)(nil)
	_ DriverRing = (*PackedDriverQueue)(nil)
)
