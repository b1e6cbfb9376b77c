package pcie

import (
	"fmt"
	"strconv"

	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// BarHandlers are the device-side register callbacks for one BAR.
// They run at TLP-arrival time in scheduler context and must not block;
// any multi-cycle reaction is scheduled by the device model itself.
type BarHandlers struct {
	Read  func(off uint64, size int) uint64
	Write func(off uint64, size int, v uint64)
}

// Endpoint is one PCIe device function attached to the root complex:
// config space, up to six 32-bit memory BARs, bus-mastered DMA, and
// MSI-X signalling. Device models (the XDMA example design, the VirtIO
// controller) are built on top of exactly this surface.
type Endpoint struct {
	sim   *sim.Sim
	index int // attach order on rc
	name  string
	cfg   *ConfigSpace
	link  *Link
	rc    *RootComplex
	bars  [6]BarHandlers
	stats *Stats
	met   *epMetrics

	// Fault-injection state: end of the current stall window and the
	// lazily-registered poisoned-completion counter (see faults.go).
	stallUntil sim.Time
	cplErrs    *telemetry.Counter

	msixVectors int
	msixOps     []*msixOp

	readOps  []*DMARead
	writeOps []*dmaWriteOp

	spans struct{ dmaRead, dmaWrite, msix sim.SpanKind }
}

// Index reports the endpoint's position in its root complex's
// Endpoints, a dense index for per-endpoint tables.
func (ep *Endpoint) Index() int { return ep.index }

// Name reports the endpoint's name.
func (ep *Endpoint) Name() string { return ep.name }

// Config returns the endpoint's configuration space.
func (ep *Endpoint) Config() *ConfigSpace { return ep.cfg }

// Link returns the endpoint's link.
func (ep *Endpoint) Link() *Link { return ep.link }

// Stats returns the endpoint's bus-traffic counters.
func (ep *Endpoint) Stats() *Stats { return ep.stats }

// SetBarHandlers installs register callbacks for BAR i.
func (ep *Endpoint) SetBarHandlers(i int, h BarHandlers) {
	if ep.cfg.BARSize(i) == 0 {
		panic(fmt.Sprintf("pcie: %s: BAR%d has no size declared", ep.name, i))
	}
	ep.bars[i] = h
}

// ConfigureMSIX declares the number of MSI-X vectors the function
// exposes (mirrored in the MSI-X capability added by the device model).
func (ep *Endpoint) ConfigureMSIX(vectors int) {
	ep.msixVectors = vectors
	ep.msixOps = make([]*msixOp, vectors)
	for v := 0; v < vectors; v++ {
		op := &msixOp{ep: ep, vector: v, label: ep.link.Label("MSIX:" + strconv.Itoa(v))}
		op.dispatch = func() {
			if op.ep.rc.irqSink != nil {
				op.ep.rc.irqSink(op.ep, op.vector)
			}
		}
		op.afterLink = func() {
			op.ep.sim.After(op.ep.rc.costs.APICDelay, "rc:apic", op.dispatch)
		}
		ep.msixOps[v] = op
	}
}

// barRead services an inbound memory read at arrival time.
func (ep *Endpoint) barRead(bar int, off uint64, size int) uint64 {
	h := ep.bars[bar]
	if h.Read == nil {
		return 0
	}
	return h.Read(off, size)
}

// barWrite services an inbound memory write at arrival time.
func (ep *Endpoint) barWrite(bar int, off uint64, size int, v uint64) {
	h := ep.bars[bar]
	if h.Write != nil {
		h.Write(off, size, v)
	}
}

func (ep *Endpoint) requireBusMaster(op string) {
	if !ep.cfg.BusMaster() {
		panic(fmt.Sprintf("pcie: %s: %s attempted with bus mastering disabled", ep.name, op))
	}
}

// growBytes returns b resized to n bytes, reallocating only when the
// capacity is insufficient.
func growBytes(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// DMARead is one bus-mastered read from host memory, a pooled state
// machine that BeginDMARead starts and the reading device process
// drives with Await and Advance. The link serializes TLPs in FIFO order
// per direction, so the completions of one read request arrive in
// transfer order and a single pre-built arrival callback can advance an
// offset cursor instead of allocating one closure per completion chunk.
//
//fvlint:hotpath
type DMARead struct {
	ep       *Endpoint
	done     *sim.Trigger
	sp       sim.SpanRef
	dst      []byte
	stage    []byte   // request data captured at host-memory read time
	base     mem.Addr // host address of dst[0]
	reqOff   int      // offset of the current request within dst
	reqLen   int
	chunkOff int // next completion's offset within the request
	onMRd    func()
	onMem    func()
	onCplD   func()
}

func (ep *Endpoint) getReadOp() *DMARead {
	if n := len(ep.readOps); n > 0 {
		op := ep.readOps[n-1]
		ep.readOps[n-1] = nil
		ep.readOps = ep.readOps[:n-1]
		return op
	}
	op := &DMARead{ep: ep, done: sim.NewTrigger(ep.sim, ep.name+":dmard")}
	op.onMRd = func() {
		// Root-complex side: memory access latency, then stream
		// completions back down the link.
		op.ep.sim.After(op.ep.rc.costs.MemLatency, "rc:mem", op.onMem)
	}
	op.onMem = func() {
		// Capture the request's bytes now — the host may overwrite the
		// region before the completions land — then stream them back as
		// MPS-sized CplDs.
		op.stage = growBytes(op.stage, op.reqLen)
		op.ep.rc.Mem.ReadInto(op.base+mem.Addr(op.reqOff), op.stage[:op.reqLen])
		if op.ep.rc.faults.Fire(faults.DMAReadErr) {
			// Poisoned read completion: the device receives corrupted
			// data for this request.
			op.stage[0] ^= 0xa5
			op.ep.cplError()
		}
		mps := op.ep.link.cfg.MPS
		for off := 0; off < op.reqLen; off += mps {
			c := op.reqLen - off
			if c > mps {
				c = mps
			}
			op.ep.countDown(TLPCompletion, c)
			op.ep.link.Down(c, op.ep.link.cpld, op.onCplD)
		}
	}
	op.onCplD = func() {
		mps := op.ep.link.cfg.MPS
		c := op.reqLen - op.chunkOff
		if c > mps {
			c = mps
		}
		copy(op.dst[op.reqOff+op.chunkOff:], op.stage[op.chunkOff:op.chunkOff+c])
		op.chunkOff += c
		if op.chunkOff == op.reqLen {
			op.done.Fire()
		}
	}
	return op
}

// BeginDMARead starts fetching len(dst) bytes from host memory at a
// into dst, for a device process: it opens the read's span and issues
// the first read request. The read takes one MRd per MRRS-sized
// request, answered by MPS-sized completions, and the process waits for
// each through Await and moves on with Advance:
//
//	rd := ep.BeginDMARead(a, dst)
//	for {
//		if rd.Await(p) {
//			... block until the resume (return sim.Blocked from a step)
//		}
//		if !rd.Advance() {
//			break
//		}
//	}
//
// dst must not be empty.
func (ep *Endpoint) BeginDMARead(a mem.Addr, dst []byte) *DMARead {
	ep.requireBusMaster("DMARead")
	if len(dst) == 0 {
		panic(fmt.Sprintf("pcie: %s: empty DMA read", ep.name))
	}
	op := ep.getReadOp()
	op.sp = ep.sim.BeginSpan(ep.spans.dmaRead) // ends in Advance
	op.dst, op.base = dst, a
	op.issue(0)
	return op
}

// issue sends the read request for dst[off:], at most MRRS bytes.
func (op *DMARead) issue(off int) {
	ep := op.ep
	op.reqOff, op.reqLen, op.chunkOff = off, min(len(op.dst)-off, ep.link.cfg.MRRS), 0
	ep.countUp(TLPMemRead, 0)
	ep.link.Up(0, ep.link.mrd, op.onMRd)
}

// Await registers p to be resumed when the current request's last
// completion lands and reports true, or reports false when it already
// has (see sim.Trigger.Await).
func (op *DMARead) Await(p *sim.Proc) bool { return op.done.Await(p) }

// Advance moves on once the current request has completed: it issues
// the next request and reports true, or ends the read and reports
// false. The ended read is recycled and must not be used again.
func (op *DMARead) Advance() bool {
	op.done.Reset()
	if off := op.reqOff + op.reqLen; off < len(op.dst) {
		op.issue(off)
		return true
	}
	sp := op.sp
	op.sp, op.dst = sim.SpanRef{}, nil
	op.ep.readOps = append(op.ep.readOps, op)
	sp.End()
	return false
}

// dmaWriteOp is the pooled state machine behind PostDMAWrite: the
// payload is staged into an owned buffer at issue time and landed chunk
// by chunk as the posted writes arrive, again relying on per-direction
// FIFO delivery.
//
//fvlint:hotpath
type dmaWriteOp struct {
	ep    *Endpoint
	buf   []byte
	addr  mem.Addr
	off   int // next chunk offset to land in host memory
	sp    sim.SpanRef
	onMWr func()
}

func (ep *Endpoint) getWriteOp() *dmaWriteOp {
	if n := len(ep.writeOps); n > 0 {
		op := ep.writeOps[n-1]
		ep.writeOps[n-1] = nil
		ep.writeOps = ep.writeOps[:n-1]
		return op
	}
	op := &dmaWriteOp{ep: ep}
	op.onMWr = func() {
		mps := op.ep.link.cfg.MPS
		c := len(op.buf) - op.off
		if c > mps {
			c = mps
		}
		if op.ep.rc.faults.Fire(faults.DMAWriteErr) {
			// Dropped posted write: this chunk never lands in host
			// memory, leaving stale bytes behind.
			op.ep.cplError()
		} else {
			op.ep.rc.Mem.Write(op.addr+mem.Addr(op.off), op.buf[op.off:op.off+c])
		}
		op.off += c
		if op.off == len(op.buf) {
			// Posted: the span closes when the final chunk lands, and
			// only then is the op idle enough to recycle.
			op.sp.End()
			op.sp = sim.SpanRef{}
			op.ep.writeOps = append(op.ep.writeOps, op)
		}
	}
	return op
}

// PostDMAWrite pushes data into host memory at a with posted writes,
// MPS bytes per MWr, and returns when the upstream half of the link
// finishes serializing the last of them: the device's data mover is
// busy until then. The bytes land in host memory one propagation delay
// later; the caller may reuse data at once.
func (ep *Endpoint) PostDMAWrite(a mem.Addr, data []byte) sim.Time {
	ep.requireBusMaster("DMAWrite")
	if len(data) == 0 {
		return ep.sim.Now()
	}
	op := ep.getWriteOp()
	//fvlint:ignore metricname span ends in the pooled op's final MWr arrival callback
	op.sp = ep.sim.BeginSpan(ep.spans.dmaWrite)
	op.buf = growBytes(op.buf, len(data))
	copy(op.buf, data)
	op.addr = a
	op.off = 0
	mps := ep.link.cfg.MPS
	var lastSer sim.Time
	for off := 0; off < len(data); off += mps {
		c := len(data) - off
		if c > mps {
			c = mps
		}
		ep.countUp(TLPMemWrite, c)
		lastSer = ep.link.Up(c, ep.link.mwr, op.onMWr)
	}
	return lastSer
}

// msixOp carries the pre-built delivery chain for one MSI-X vector so
// the interrupt-per-packet path does not allocate.
type msixOp struct {
	ep        *Endpoint
	vector    int
	label     *WireLabel // "MSIX:<v>"
	afterLink func()
	dispatch  func()
}

// RaiseMSIX signals MSI-X vector v: an upstream posted write followed by
// interrupt-controller dispatch at the root complex.
func (ep *Endpoint) RaiseMSIX(v int) {
	ep.requireBusMaster("RaiseMSIX")
	if v < 0 || v >= ep.msixVectors {
		panic(fmt.Sprintf("pcie: %s: MSI-X vector %d out of range (%d configured)", ep.name, v, ep.msixVectors))
	}
	if inj := ep.Faults(); inj != nil {
		if inj.Fire(faults.IRQDrop) {
			// The MSI message TLP is lost in the fabric: the device
			// believes it interrupted the host, no handler ever runs.
			// Drivers recover through their completion watchdogs.
			return
		}
		if inj.Fire(faults.IRQSpurious) {
			ep.raiseMSIX(v) // duplicate delivery ahead of the real one
		}
	}
	ep.raiseMSIX(v)
}

// raiseMSIX performs the actual message-TLP send for vector v; the
// fault checks have already been applied.
func (ep *Endpoint) raiseMSIX(v int) {
	ep.countUp(TLPMessage, 4)
	ep.stats.Interrupts++
	if ep.met != nil {
		ep.met.interrupts.Inc()
	}
	// The msix span runs from the raise to APIC dispatch, one APIC
	// delay after the message TLP arrives, so it is known now. It is
	// logged before the TLP is queued: both spans start now, and the
	// msix span takes the lower id.
	_, arrive := ep.link.timing(&ep.link.up, 4)
	ep.sim.SpanClosed(ep.spans.msix, ep.sim.Now(), arrive.Add(ep.rc.costs.APICDelay))
	op := ep.msixOps[v]
	ep.link.Up(4, op.label, op.afterLink)
}
