package vdev

import (
	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/virtio"
)

// mAddr converts a byte offset into a card-memory address.
func mAddr(off int) mem.Addr { return mem.Addr(off) }

// BlkQueueReq is the single request queue of the block device.
const BlkQueueReq = 0

// BlkOptions parameterizes a block-device instance (the storage-
// accelerator use case from the paper's introduction).
type BlkOptions struct {
	Link pcie.LinkConfig
	// CapacitySectors is the device size in 512-byte sectors.
	CapacitySectors uint64

	loops *blockingLoops // set only by tests, see Options
}

// BlkDevice is the VirtIO block personality backed by card memory
// (standing in for board DRAM behind the DMA engine).
type BlkDevice struct {
	ctrl    *Controller
	opt     BlkOptions
	storage *fpga.BRAM
	reads   int
	writes  int
}

// NewBlk attaches a block device to the root complex.
func NewBlk(s *sim.Sim, rc *pcie.RootComplex, name string, opt BlkOptions) *BlkDevice {
	if opt.CapacitySectors == 0 {
		opt.CapacitySectors = 2048 // 1 MiB
	}
	d := &BlkDevice{
		opt:     opt,
		storage: fpga.NewBRAM(name+".dram", int(opt.CapacitySectors)*virtio.BlkSectorSize),
	}
	d.ctrl = NewController(s, rc, name, d, Options{Link: opt.Link, loops: opt.loops})
	return d
}

// Controller returns the underlying VirtIO controller.
func (d *BlkDevice) Controller() *Controller { return d.ctrl }

// Stats reports completed read and write requests.
func (d *BlkDevice) Stats() (reads, writes int) { return d.reads, d.writes }

// Type implements Personality.
func (d *BlkDevice) Type() virtio.DeviceType { return virtio.DeviceBlock }

// DeviceFeatures implements Personality.
func (d *BlkDevice) DeviceFeatures() virtio.Feature { return 0 }

// NumQueues implements Personality.
func (d *BlkDevice) NumQueues() int { return 1 }

// QueueDir implements Personality.
func (d *BlkDevice) QueueDir(q int) Dir { return DriverToDevice }

// ConfigBytes implements Personality: capacity in sectors.
func (d *BlkDevice) ConfigBytes() []byte {
	b := make([]byte, virtio.BlkCfgLen)
	c := d.opt.CapacitySectors
	for i := 0; i < 8; i++ {
		b[virtio.BlkCfgCapacity+i] = byte(c >> (8 * i))
	}
	return b
}

// span returns the card-memory offset of n bytes starting at sector,
// and whether they fit. The sector comes from a header the host wrote,
// so it is range-checked before it is converted to an offset.
func (d *BlkDevice) span(sector uint64, n int) (int, bool) {
	size := d.storage.Size()
	if sector > uint64(size/virtio.BlkSectorSize) {
		return 0, false
	}
	off := int(sector) * virtio.BlkSectorSize
	return off, n <= size-off
}

// request decodes a request chain: its type and, for a read or a
// write that fits the device, the card-memory offset and length it
// moves. Any other request is answered at once with the status
// returned, which is then not BlkStatusOK, except for a flush.
func (d *BlkDevice) request(data []byte, writable int) (typ uint32, off, n int, status byte) {
	hdr, err := virtio.DecodeBlkReqHdr(data)
	if err != nil {
		return 0, 0, 0, virtio.BlkStatusIOErr
	}
	switch hdr.Type {
	case virtio.BlkTIn:
		// Read: the request length is the chain's writable capacity
		// minus the trailing status byte (virtio-blk §5.2.6).
		n = writable - 1
		off, ok := d.span(hdr.Sector, n)
		if !ok || n <= 0 || n%virtio.BlkSectorSize != 0 {
			return 0, 0, 0, virtio.BlkStatusIOErr
		}
		return hdr.Type, off, n, virtio.BlkStatusOK
	case virtio.BlkTOut:
		n = len(data) - virtio.BlkReqHdrSize
		off, ok := d.span(hdr.Sector, n)
		if !ok || n%virtio.BlkSectorSize != 0 {
			return 0, 0, 0, virtio.BlkStatusIOErr
		}
		return hdr.Type, off, n, virtio.BlkStatusOK
	case virtio.BlkTFlush:
		return hdr.Type, 0, 0, virtio.BlkStatusOK
	}
	return 0, 0, 0, virtio.BlkStatusUnsupp
}

// ChainCost implements Personality: a read or a write streams its
// sectors through the 16 B/cycle card-memory datapath.
func (d *BlkDevice) ChainCost(q int, data []byte, writable int) sim.Duration {
	typ, _, n, status := d.request(data, writable)
	if status != virtio.BlkStatusOK || typ == virtio.BlkTFlush {
		return 0
	}
	clk := d.ctrl.Clock()
	return clk.Cycles(clk.CyclesFor(n, 16))
}

// HandleDriverChain implements Personality: perform the request's
// sector operation against card memory and return the device-writable
// bytes ([data +] status).
func (d *BlkDevice) HandleDriverChain(q int, data []byte, writable int) []byte {
	typ, off, n, status := d.request(data, writable)
	if status != virtio.BlkStatusOK {
		return []byte{status}
	}
	switch typ {
	case virtio.BlkTIn:
		out := d.storage.Read(mAddr(off), n)
		d.reads++
		return append(out, virtio.BlkStatusOK)
	case virtio.BlkTOut:
		d.storage.Write(mAddr(off), data[virtio.BlkReqHdrSize:])
		d.writes++
	}
	return []byte{virtio.BlkStatusOK}
}
