package pcie

import (
	"fmt"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Costs collects the fixed latencies of the root-complex side of the
// interconnect. Defaults are typical of the desktop platform in the
// paper's testbed.
type Costs struct {
	// MemLatency is the DRAM access time for a device-initiated read.
	MemLatency sim.Duration
	// MMIOWriteCPU is how long an uncached store occupies the CPU
	// before it is posted toward the device.
	MMIOWriteCPU sim.Duration
	// RegReadLatency is the device-internal time to produce a register
	// read completion once the MRd arrives.
	RegReadLatency sim.Duration
	// CfgService is the device-internal service time of a config TLP.
	CfgService sim.Duration
	// APICDelay is MSI arrival to interrupt-controller dispatch.
	APICDelay sim.Duration
}

// DefaultCosts returns the calibrated platform constants.
func DefaultCosts() Costs {
	return Costs{
		MemLatency:     sim.Ns(80),
		MMIOWriteCPU:   sim.Ns(60),
		RegReadLatency: sim.Ns(32), // four fabric cycles at 125 MHz
		CfgService:     sim.Ns(100),
		APICDelay:      sim.Ns(300),
	}
}

// mmioWindowBase is where the enumerator starts assigning BARs.
const mmioWindowBase = 0xe000_0000

// RootComplex is the host side of the interconnect: it owns host
// memory (as the target of device DMA), routes host MMIO to endpoint
// BARs, and delivers MSI-X interrupts to the platform sink.
type RootComplex struct {
	sim     *sim.Sim
	Mem     *mem.Memory
	costs   Costs
	eps     []*Endpoint
	irqSink func(ep *Endpoint, vector int)
	metrics *telemetry.Registry
	faults  *faults.Injector

	nextBAR uint64
	routes  []barRoute

	mmioWriteOps []*mmioWriteOp
	mmioReadOps  []*MMIORead

	spans struct{ cfgRead, cfgWrite, mmioWrite, mmioRead sim.SpanKind }
}

type barRoute struct {
	ep   *Endpoint
	bar  int
	base uint64
	size uint64
}

// NewRootComplex returns a root complex over host memory m.
func NewRootComplex(s *sim.Sim, m *mem.Memory, costs Costs) *RootComplex {
	rc := &RootComplex{sim: s, Mem: m, costs: costs, nextBAR: mmioWindowBase}
	rc.spans.cfgRead = s.SpanKind(telemetry.LayerPCIe, "", "cfg-read")
	rc.spans.cfgWrite = s.SpanKind(telemetry.LayerPCIe, "", "cfg-write")
	rc.spans.mmioWrite = s.SpanKind(telemetry.LayerPCIe, "", "mmio-write")
	rc.spans.mmioRead = s.SpanKind(telemetry.LayerPCIe, "", "mmio-read")
	return rc
}

// SetIRQSink installs the platform interrupt handler (the host model's
// interrupt controller).
func (rc *RootComplex) SetIRQSink(fn func(ep *Endpoint, vector int)) { rc.irqSink = fn }

// Attach connects a new endpoint with the given config space over a
// fresh link. Device models decorate the returned endpoint with BAR
// handlers before enumeration runs.
func (rc *RootComplex) Attach(name string, cfg *ConfigSpace, link LinkConfig) *Endpoint {
	ep := &Endpoint{
		sim:   rc.sim,
		index: len(rc.eps),
		name:  name,
		cfg:   cfg,
		link:  NewLink(rc.sim, link),
		rc:    rc,
		stats: NewStats(),
	}
	ep.spans.dmaRead = rc.sim.SpanKind(telemetry.LayerPCIe, "", "dma-read")
	ep.spans.dmaWrite = rc.sim.SpanKind(telemetry.LayerPCIe, "", "dma-write")
	ep.spans.msix = rc.sim.SpanKind(telemetry.LayerPCIe, "", "msix")
	if rc.metrics != nil {
		ep.met = newEPMetrics(rc.metrics)
	}
	rc.eps = append(rc.eps, ep)
	return ep
}

// Endpoints lists attached endpoints in attach order.
func (rc *RootComplex) Endpoints() []*Endpoint { return rc.eps }

func (rc *RootComplex) route(addr uint64) (ep *Endpoint, bar int, off uint64) {
	for _, r := range rc.routes {
		if addr >= r.base && addr < r.base+r.size {
			return r.ep, r.bar, addr - r.base
		}
	}
	panic(fmt.Sprintf("pcie: MMIO address %#x not mapped to any BAR", addr))
}

// ConfigRead32 performs a configuration read of the given endpoint,
// blocking the calling host process for the bus round trip.
func (rc *RootComplex) ConfigRead32(p *sim.Proc, ep *Endpoint, off int) uint32 {
	var v uint32
	done := sim.NewTrigger(rc.sim, "cfgrd")
	sp := rc.sim.BeginSpan(rc.spans.cfgRead)
	ep.countDown(TLPConfigRead, 0)
	ep.link.Down(0, ep.link.cfgRd, func() {
		rc.sim.After(rc.costs.CfgService, "ep:cfg", func() {
			v = ep.cfg.Read32(off)
			ep.countUp(TLPCompletion, 4)
			ep.link.Up(4, ep.link.cpld, done.Fire)
		})
	})
	done.Wait(p)
	sp.End()
	return v
}

// ConfigWrite32 performs a configuration write, blocking the calling
// host process until the completion for the non-posted write returns.
func (rc *RootComplex) ConfigWrite32(p *sim.Proc, ep *Endpoint, off int, v uint32) {
	done := sim.NewTrigger(rc.sim, "cfgwr")
	sp := rc.sim.BeginSpan(rc.spans.cfgWrite)
	ep.countDown(TLPConfigWrite, 4)
	ep.link.Down(4, ep.link.cfgWr, func() {
		rc.sim.After(rc.costs.CfgService, "ep:cfg", func() {
			ep.cfg.Write32(off, v)
			ep.countUp(TLPCompletion, 0)
			ep.link.Up(0, ep.link.cpl, done.Fire)
		})
	})
	done.Wait(p)
	sp.End()
}

// mmioWriteOp is the pooled delivery state for one posted MMIO write:
// the arrival callback is built once per op, so doorbell writes — the
// per-packet notification primitive of both driver stacks — do not
// allocate.
type mmioWriteOp struct {
	rc      *RootComplex
	ep      *Endpoint
	bar     int
	off     uint64
	size    int
	v       uint64
	sp      sim.SpanRef
	deliver func()
}

func (rc *RootComplex) getMMIOWrite() *mmioWriteOp {
	if n := len(rc.mmioWriteOps); n > 0 {
		op := rc.mmioWriteOps[n-1]
		rc.mmioWriteOps[n-1] = nil
		rc.mmioWriteOps = rc.mmioWriteOps[:n-1]
		return op
	}
	op := &mmioWriteOp{rc: rc}
	op.deliver = func() {
		// Fault hooks run only on faulted sessions (nil-safe Fire): a
		// dropped TLP or a stall window swallows the write at device
		// ingress — the link accounting above already happened, exactly
		// like real posted-write loss.
		if op.rc.faults.Fire(faults.TLPDrop) || op.ep.stalled() {
			op.sp.End()
			op.sp = sim.SpanRef{}
			op.ep = nil
			op.rc.mmioWriteOps = append(op.rc.mmioWriteOps, op)
			return
		}
		op.ep.barWrite(op.bar, op.off, op.size, op.v)
		op.sp.End()
		op.sp = sim.SpanRef{}
		op.ep = nil
		op.rc.mmioWriteOps = append(op.rc.mmioWriteOps, op)
	}
	return op
}

// MMIORead is one non-posted MMIO read in flight (MRd down, register
// decode, CplD up, trigger fire), a pooled op that BeginMMIORead starts
// and the reading host process waits on with Await and ends with End.
//
//fvlint:hotpath
type MMIORead struct {
	rc    *RootComplex
	ep    *Endpoint
	bar   int
	off   uint64
	size  int
	v     uint64
	done  *sim.Trigger
	sp    sim.SpanRef
	onMRd func()
	onReg func()
	fire  func()
}

func (rc *RootComplex) getMMIORead() *MMIORead {
	if n := len(rc.mmioReadOps); n > 0 {
		op := rc.mmioReadOps[n-1]
		rc.mmioReadOps[n-1] = nil
		rc.mmioReadOps = rc.mmioReadOps[:n-1]
		return op
	}
	op := &MMIORead{rc: rc, done: sim.NewTrigger(rc.sim, "mmiord")}
	op.fire = op.done.Fire
	op.onMRd = func() {
		op.rc.sim.After(op.rc.costs.RegReadLatency, "ep:reg", op.onReg)
	}
	op.onReg = func() {
		if inj := op.rc.faults; inj != nil {
			if inj.Fire(faults.Stall) {
				op.ep.beginStall()
			}
			if op.ep.stalled() || inj.Fire(faults.CplPoison) {
				// Poisoned completion: all-ones instead of register
				// data, surfaced in pcie.completion.errors so a failed
				// read is distinguishable from a register that reads 0.
				op.v = allOnes(op.size)
				op.ep.cplError()
				op.ep.countUp(TLPCompletion, op.size)
				op.ep.link.Up(op.size, op.ep.link.cpld, op.fire)
				return
			}
		}
		op.v = op.ep.barRead(op.bar, op.off, op.size)
		op.ep.countUp(TLPCompletion, op.size)
		op.ep.link.Up(op.size, op.ep.link.cpld, op.fire)
	}
	return op
}

// MMIOWrite posts a write of size bytes (1, 2, 4 or 8) to a BAR
// address. The calling host process is charged only the CPU-side cost
// of the uncached store; delivery is asynchronous (posted semantics) —
// this asymmetry versus MMIORead is exactly why VirtIO's single
// doorbell write is cheap for the driver (paper §IV-A).
func (rc *RootComplex) MMIOWrite(p *sim.Proc, addr uint64, size int, v uint64) {
	p.Sleep(rc.costs.MMIOWriteCPU)
	rc.PostMMIOWrite(addr, size, v)
}

// MMIOWriteCPU is the CPU time an MMIO write occupies before it is
// posted: what a step machine sleeps before PostMMIOWrite.
func (rc *RootComplex) MMIOWriteCPU() sim.Duration { return rc.costs.MMIOWriteCPU }

// PostMMIOWrite posts a write whose CPU time has been charged: the
// second half of MMIOWrite.
func (rc *RootComplex) PostMMIOWrite(addr uint64, size int, v uint64) {
	ep, bar, off := rc.route(addr)
	op := rc.getMMIOWrite()
	op.ep, op.bar, op.off, op.size, op.v = ep, bar, off, size, v
	// Posted write: the span covers CPU post through device-side decode
	// and ends in the pooled op's arrival callback.
	//fvlint:ignore metricname span ends in the pooled op's delivery callback
	op.sp = rc.sim.BeginSpan(rc.spans.mmioWrite)
	ep.countDown(TLPMemWrite, size)
	ep.link.Down(size, ep.link.mwr, op.deliver)
}

// BeginMMIORead starts a non-posted read of size bytes from a BAR
// address, for a host process that waits through the returned op:
//
//	rd := rc.BeginMMIORead(addr, 4)
//	if rd.Await(p) {
//		... block until the resume (return sim.Blocked from a step)
//	}
//	v := rd.End()
func (rc *RootComplex) BeginMMIORead(addr uint64, size int) *MMIORead {
	ep, bar, off := rc.route(addr)
	op := rc.getMMIORead()
	op.ep, op.bar, op.off, op.size = ep, bar, off, size
	op.sp = rc.sim.BeginSpan(rc.spans.mmioRead) // ends in End
	ep.countDown(TLPMemRead, 0)
	if rc.faults.Fire(faults.CplTimeout) {
		// The read request vanishes in the fabric; the completion
		// timeout expires and the host observes all-ones.
		op.v = allOnes(size)
		ep.cplError()
		rc.sim.After(cplTimeoutDelay, "pcie:cpl-timeout", op.fire)
	} else {
		ep.link.Down(0, ep.link.mrd, op.onMRd)
	}
	return op
}

// Await registers p to be resumed when the read's completion arrives
// and reports true, or reports false when it already has (see
// sim.Trigger.Await).
func (op *MMIORead) Await(p *sim.Proc) bool { return op.done.Await(p) }

// End closes a completed read and returns the value read. The op is
// recycled and must not be used again.
func (op *MMIORead) End() uint64 {
	op.done.Reset()
	v, sp := op.v, op.sp
	op.ep, op.sp = nil, sim.SpanRef{}
	op.rc.mmioReadOps = append(op.rc.mmioReadOps, op)
	sp.End()
	return v
}

// MMIORead performs a non-posted read of size bytes from a BAR address,
// blocking the calling host process for the full bus round trip.
func (rc *RootComplex) MMIORead(p *sim.Proc, addr uint64, size int) uint64 {
	op := rc.BeginMMIORead(addr, size)
	op.done.Wait(p)
	return op.End()
}

// DeviceInfo is the result of enumerating one endpoint.
type DeviceInfo struct {
	EP       *Endpoint
	VendorID uint16
	DeviceID uint16
	BAR      [6]uint64 // assigned base addresses (0 if absent)
}

// Enumerate scans all attached endpoints the way the kernel's PCI core
// does at boot: read IDs, size the BARs with the all-ones protocol,
// assign addresses from the MMIO window, then enable memory decoding
// and bus mastering.
func (rc *RootComplex) Enumerate(p *sim.Proc) []*DeviceInfo {
	var out []*DeviceInfo
	for _, ep := range rc.eps {
		idreg := rc.ConfigRead32(p, ep, CfgVendorID)
		if idreg == 0xffffffff {
			continue
		}
		info := &DeviceInfo{EP: ep, VendorID: uint16(idreg), DeviceID: uint16(idreg >> 16)}
		for i := 0; i < 6; i++ {
			reg := CfgBAR0 + 4*i
			rc.ConfigWrite32(p, ep, reg, 0xffffffff)
			mask := rc.ConfigRead32(p, ep, reg)
			if mask == 0 {
				continue
			}
			size := uint64(^(mask &^ 0xf) + 1)
			base := (rc.nextBAR + size - 1) &^ (size - 1)
			rc.nextBAR = base + size
			rc.ConfigWrite32(p, ep, reg, uint32(base))
			rc.routes = append(rc.routes, barRoute{ep: ep, bar: i, base: base, size: size})
			info.BAR[i] = base
		}
		rc.ConfigWrite32(p, ep, CfgCommand, CmdMemEnable|CmdBusMaster)
		out = append(out, info)
	}
	return out
}
