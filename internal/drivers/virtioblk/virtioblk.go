// Package virtioblk is the virtio-blk front-end: single request queue,
// three-descriptor requests (header, data, status), completion by
// MSI-X interrupt. It demonstrates the paper's claim that the same
// FPGA controller serves different device semantics with minimal
// change (§IV-B).
package virtioblk

import (
	"fmt"

	"fpgavirtio/internal/drivers/virtiopci"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

const queueReq = 0

// Device is a bound virtio-blk disk.
type Device struct {
	tr   *virtiopci.Transport
	host *hostos.Host

	vq       *virtiopci.VQ
	capacity uint64 // sectors
	indirect bool   // VIRTIO_F_RING_INDIRECT_DESC negotiated

	hdrBuf, dataBuf, statusBuf mem.Addr
	indTable                   mem.Addr // indirect descriptor table
	dataBufSectors             int

	wq *hostos.WaitQueue

	Requests int

	requests *telemetry.Counter
}

// MaxSectorsPerRequest bounds one request's data segment.
const MaxSectorsPerRequest = 8

// Probe binds the block driver to an enumerated device.
func Probe(p *sim.Proc, h *hostos.Host, info *pcie.DeviceInfo) (*Device, error) {
	tr, err := virtiopci.Probe(p, h, info)
	if err != nil {
		return nil, err
	}
	if info.DeviceID != virtio.DeviceBlock.PCIDeviceID() {
		return nil, fmt.Errorf("virtioblk: not a block device: %#x", info.DeviceID)
	}
	feats, err := tr.Negotiate(p, virtio.FRingIndirectDesc)
	if err != nil {
		return nil, err
	}
	d := &Device{
		tr:       tr,
		host:     h,
		wq:       h.NewWaitQueue("vblk"),
		indirect: feats.Has(virtio.FRingIndirectDesc),
		requests: h.Metrics().Counter(telemetry.MetricVirtioblkRequests),
	}
	cfg := tr.ReadDeviceConfig(p, virtio.BlkCfgCapacity, 8)
	for i := 7; i >= 0; i-- {
		d.capacity = d.capacity<<8 | uint64(cfg[i])
	}
	if d.vq, err = tr.SetupQueue(p, queueReq, 128); err != nil {
		return nil, err
	}
	d.vq.RegisterIRQ(d.onIRQ)
	d.hdrBuf = tr.AllocBuffer(virtio.BlkReqHdrSize)
	d.dataBufSectors = MaxSectorsPerRequest
	d.dataBuf = tr.AllocBuffer(d.dataBufSectors * virtio.BlkSectorSize)
	d.statusBuf = tr.AllocBuffer(1)
	d.indTable = tr.AllocBuffer(3 * 16) // hdr + data + status descriptors
	tr.DriverOK(p)
	return d, nil
}

// Indirect reports whether indirect descriptors were negotiated.
func (d *Device) Indirect() bool { return d.indirect }

// CapacitySectors reports the device capacity from config space.
func (d *Device) CapacitySectors() uint64 { return d.capacity }

func (d *Device) onIRQ(p *sim.Proc) {
	d.host.CPUWork(p, sim.Ns(260))
	d.wq.Wake()
}

// submit issues one request chain and blocks for its completion, using
// an indirect table when negotiated (one ring slot, one device fetch).
func (d *Device) submit(p *sim.Proc, segs []virtio.BufSeg) error {
	sp := p.Sim().BeginSpan(telemetry.LayerDriver, "virtioblk.submit")
	defer sp.End()
	if d.indirect {
		d.host.CPUWork(p, 150*sim.Nanosecond) // table setup
		if _, err := d.vq.AddIndirect(segs, "req", d.indTable); err != nil {
			return err
		}
	} else if err := d.vq.AddChain(p, segs, "req"); err != nil {
		return err
	}
	d.vq.Kick(p)
	for !d.vq.HasUsed() {
		d.wq.Wait(p)
	}
	d.vq.Harvest(p)
	d.Requests++
	d.requests.Inc()
	if st := d.host.Mem.U8(d.statusBuf); st != virtio.BlkStatusOK {
		return fmt.Errorf("virtioblk: request failed: status %d", st)
	}
	return nil
}

// checkRange rejects a request for count sectors starting at sector
// that does not fit the device. It compares against the sectors left
// after sector, so a sector near 2^64 cannot wrap the sum past the
// capacity.
func (d *Device) checkRange(sector uint64, count int) error {
	if sector > d.capacity || uint64(count) > d.capacity-sector {
		return fmt.Errorf("virtioblk: %d sectors at sector %d beyond capacity %d", count, sector, d.capacity)
	}
	return nil
}

// ReadSector reads one 512-byte sector.
func (d *Device) ReadSector(p *sim.Proc, sector uint64) ([]byte, error) {
	return d.ReadSectors(p, sector, 1)
}

// ReadSectors reads count consecutive sectors in a single request.
func (d *Device) ReadSectors(p *sim.Proc, sector uint64, count int) ([]byte, error) {
	if count <= 0 || count > d.dataBufSectors {
		return nil, fmt.Errorf("virtioblk: count %d out of range [1,%d]", count, d.dataBufSectors)
	}
	if err := d.checkRange(sector, count); err != nil {
		return nil, err
	}
	n := count * virtio.BlkSectorSize
	d.host.SyscallEnter(p)
	defer d.host.SyscallExit(p)
	d.host.Mem.Write(d.hdrBuf, virtio.BlkReqHdr{Type: virtio.BlkTIn, Sector: sector}.Encode())
	err := d.submit(p, []virtio.BufSeg{
		{Addr: d.hdrBuf, Len: virtio.BlkReqHdrSize},
		{Addr: d.dataBuf, Len: n, DeviceWritten: true},
		{Addr: d.statusBuf, Len: 1, DeviceWritten: true},
	})
	if err != nil {
		return nil, err
	}
	d.host.Copy(p, n)
	return d.host.Mem.Read(d.dataBuf, n), nil
}

// WriteSector writes one 512-byte sector.
func (d *Device) WriteSector(p *sim.Proc, sector uint64, data []byte) error {
	return d.WriteSectors(p, sector, data)
}

// WriteSectors writes len(data)/512 consecutive sectors in a single
// request.
func (d *Device) WriteSectors(p *sim.Proc, sector uint64, data []byte) error {
	if len(data) == 0 || len(data)%virtio.BlkSectorSize != 0 {
		return fmt.Errorf("virtioblk: write length %d not a sector multiple", len(data))
	}
	count := len(data) / virtio.BlkSectorSize
	if count > d.dataBufSectors {
		return fmt.Errorf("virtioblk: %d sectors exceeds per-request limit %d", count, d.dataBufSectors)
	}
	if err := d.checkRange(sector, count); err != nil {
		return err
	}
	d.host.SyscallEnter(p)
	defer d.host.SyscallExit(p)
	d.host.Copy(p, len(data))
	d.host.Mem.Write(d.hdrBuf, virtio.BlkReqHdr{Type: virtio.BlkTOut, Sector: sector}.Encode())
	d.host.Mem.Write(d.dataBuf, data)
	return d.submit(p, []virtio.BufSeg{
		{Addr: d.hdrBuf, Len: virtio.BlkReqHdrSize},
		{Addr: d.dataBuf, Len: len(data)},
		{Addr: d.statusBuf, Len: 1, DeviceWritten: true},
	})
}

// Flush issues a VIRTIO_BLK_T_FLUSH barrier.
func (d *Device) Flush(p *sim.Proc) error {
	d.host.SyscallEnter(p)
	defer d.host.SyscallExit(p)
	d.host.Mem.Write(d.hdrBuf, virtio.BlkReqHdr{Type: virtio.BlkTFlush}.Encode())
	return d.submit(p, []virtio.BufSeg{
		{Addr: d.hdrBuf, Len: virtio.BlkReqHdrSize},
		{Addr: d.statusBuf, Len: 1, DeviceWritten: true},
	})
}
