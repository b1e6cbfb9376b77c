package pcie

import "fmt"

// Standard configuration-space register offsets (type-0 header).
const (
	CfgVendorID   = 0x00
	CfgDeviceID   = 0x02
	CfgCommand    = 0x04
	CfgStatus     = 0x06
	CfgRevision   = 0x08
	CfgClassCode  = 0x09
	CfgHeaderType = 0x0e
	CfgBAR0       = 0x10
	CfgSubsysVID  = 0x2c
	CfgSubsysID   = 0x2e
	CfgCapPtr     = 0x34
	CfgIntLine    = 0x3c
)

// Command register bits.
const (
	CmdMemEnable = 1 << 1
	CmdBusMaster = 1 << 2
)

// Status register bits.
const StatusCapList = 1 << 4

// Capability IDs.
const (
	CapIDMSIX   = 0x11
	CapIDVendor = 0x09
)

const cfgSize = 4096
const firstCapOffset = 0x40

// ConfigSpace is a byte-backed PCIe configuration space with a
// capability chain and the standard BAR sizing protocol (write all-ones,
// read back the size mask). Drivers in this repository walk it exactly
// the way the kernel does, which is how the virtio-pci transport locates
// the VirtIO configuration structures on the FPGA (paper §II-C).
type ConfigSpace struct {
	raw      [cfgSize]byte
	barSize  [6]uint32 // BAR size in bytes; 0 = unimplemented
	barProbe [6]bool   // true after an all-ones write, until next write
	nextCap  int       // next free capability offset
	lastCap  int       // offset of previous capability header (for chaining)
}

// NewConfigSpace returns a type-0 config space for the given IDs.
func NewConfigSpace(vendor, device uint16, classCode uint32, subsysVendor, subsysDevice uint16) *ConfigSpace {
	c := &ConfigSpace{nextCap: firstCapOffset}
	c.putU16(CfgVendorID, vendor)
	c.putU16(CfgDeviceID, device)
	// Class code occupies bytes 0x09-0x0b (prog IF, subclass, base class).
	c.raw[CfgRevision] = 0x01
	c.raw[CfgClassCode] = byte(classCode)
	c.raw[CfgClassCode+1] = byte(classCode >> 8)
	c.raw[CfgClassCode+2] = byte(classCode >> 16)
	c.raw[CfgHeaderType] = 0x00
	c.putU16(CfgSubsysVID, subsysVendor)
	c.putU16(CfgSubsysID, subsysDevice)
	return c
}

func (c *ConfigSpace) putU16(off int, v uint16) {
	c.raw[off] = byte(v)
	c.raw[off+1] = byte(v >> 8)
}

func (c *ConfigSpace) u16(off int) uint16 {
	return uint16(c.raw[off]) | uint16(c.raw[off+1])<<8
}

func (c *ConfigSpace) putU32(off int, v uint32) {
	c.raw[off] = byte(v)
	c.raw[off+1] = byte(v >> 8)
	c.raw[off+2] = byte(v >> 16)
	c.raw[off+3] = byte(v >> 24)
}

func (c *ConfigSpace) u32(off int) uint32 {
	return uint32(c.raw[off]) | uint32(c.raw[off+1])<<8 | uint32(c.raw[off+2])<<16 | uint32(c.raw[off+3])<<24
}

// SetBARSize declares BAR i as a 32-bit non-prefetchable memory region
// of the given size (a power of two, at least 16).
func (c *ConfigSpace) SetBARSize(i int, size uint32) {
	if i < 0 || i >= 6 {
		panic("pcie: BAR index out of range")
	}
	if size < 16 || size&(size-1) != 0 {
		panic(fmt.Sprintf("pcie: BAR size %d not a power of two >= 16", size))
	}
	c.barSize[i] = size
}

// BARSize reports the declared size of BAR i (0 if unimplemented).
func (c *ConfigSpace) BARSize(i int) uint32 { return c.barSize[i] }

// AddCapability appends a capability with the given ID and body (the
// bytes following the 2-byte [id, next] header) to the chain and
// returns its config-space offset.
func (c *ConfigSpace) AddCapability(id byte, body []byte) int {
	off := c.nextCap
	total := 2 + len(body)
	if off+total > 0x100 {
		panic("pcie: capability area overflow")
	}
	c.raw[off] = id
	c.raw[off+1] = 0 // end of chain until a successor links in
	copy(c.raw[off+2:], body)
	if c.lastCap == 0 {
		c.raw[CfgCapPtr] = byte(off)
		c.putU16(CfgStatus, c.u16(CfgStatus)|StatusCapList)
	} else {
		c.raw[c.lastCap+1] = byte(off)
	}
	c.lastCap = off
	c.nextCap = (off + total + 3) &^ 3
	return off
}

// Read32 returns the aligned 32-bit register at off, honouring a
// pending BAR size probe.
func (c *ConfigSpace) Read32(off int) uint32 {
	off &^= 3
	if off < 0 || off+4 > cfgSize {
		return 0xffffffff
	}
	if off >= CfgBAR0 && off < CfgBAR0+24 {
		i := (off - CfgBAR0) / 4
		if c.barSize[i] == 0 {
			return 0
		}
		if c.barProbe[i] {
			return ^(c.barSize[i] - 1) & 0xfffffff0
		}
	}
	return c.u32(off)
}

// Write32 stores the aligned 32-bit register at off, implementing the
// command register and the BAR sizing protocol.
func (c *ConfigSpace) Write32(off int, v uint32) {
	off &^= 3
	if off < 0 || off+4 > cfgSize {
		return
	}
	switch {
	case off == CfgCommand:
		// Only the command half is writable here; preserve status.
		c.putU16(CfgCommand, uint16(v))
	case off >= CfgBAR0 && off < CfgBAR0+24:
		i := (off - CfgBAR0) / 4
		if c.barSize[i] == 0 {
			return
		}
		if v == 0xffffffff {
			c.barProbe[i] = true
			return
		}
		c.barProbe[i] = false
		c.putU32(off, v&^(c.barSize[i]-1))
	case off >= firstCapOffset && off < 0x100:
		c.putU32(off, v) // capabilities may contain RW fields (e.g. MSI-X enable)
	default:
		// Read-only header fields: ignore writes.
	}
}

// BusMaster reports whether the function may issue DMA.
func (c *ConfigSpace) BusMaster() bool { return c.u16(CfgCommand)&CmdBusMaster != 0 }
