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
	d.ctrl = NewController(s, rc, name, d, Options{Link: opt.Link})
	return d
}

// Controller returns the underlying VirtIO controller.
func (d *BlkDevice) Controller() *Controller { return d.ctrl }

// Storage exposes the backing card memory (tests seed it directly).
func (d *BlkDevice) Storage() *fpga.BRAM { return d.storage }

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

// HandleDriverChain implements Personality: parse the request header,
// perform the sector operation against card memory, and return the
// device-writable bytes ([data +] status).
func (d *BlkDevice) HandleDriverChain(p *sim.Proc, q int, data []byte, writable int) []byte {
	hdr, err := virtio.DecodeBlkReqHdr(data)
	if err != nil {
		return []byte{virtio.BlkStatusIOErr}
	}
	payload := data[virtio.BlkReqHdrSize:]
	clk := d.ctrl.Clock()
	switch hdr.Type {
	case virtio.BlkTIn:
		// Read: the request length is the chain's writable capacity
		// minus the trailing status byte (virtio-blk §5.2.6).
		n := writable - 1
		off, ok := d.span(hdr.Sector, n)
		if !ok || n <= 0 || n%virtio.BlkSectorSize != 0 {
			return []byte{virtio.BlkStatusIOErr}
		}
		p.Sleep(clk.Cycles(clk.CyclesFor(n, 16)))
		out := d.storage.Read(mAddr(off), n)
		d.reads++
		return append(out, virtio.BlkStatusOK)
	case virtio.BlkTOut:
		off, ok := d.span(hdr.Sector, len(payload))
		if !ok || len(payload)%virtio.BlkSectorSize != 0 {
			return []byte{virtio.BlkStatusIOErr}
		}
		p.Sleep(clk.Cycles(clk.CyclesFor(len(payload), 16)))
		d.storage.Write(mAddr(off), payload)
		d.writes++
		return []byte{virtio.BlkStatusOK}
	case virtio.BlkTFlush:
		return []byte{virtio.BlkStatusOK}
	default:
		return []byte{virtio.BlkStatusUnsupp}
	}
}
