// Package xdmaip models the Xilinx DMA/Bridge Subsystem for PCI
// Express (XDMA, PG195) at the level of behaviour the paper's
// experiments observe: descriptor-based H2C and C2H SGDMA channels
// programmed through a register BAR, a card-side direct port used by
// the VirtIO controller (Fig. 2: "the VirtIO controller ... controls
// the DMA engine of the XDMA IP"), interrupt generation, and hardware
// performance counters around the data movers.
//
// The register offsets follow the PG195 layout (channel blocks at
// 0x0000/0x1000, IRQ block at 0x2000, SGDMA blocks at 0x4000/0x5000)
// with the field subset the reference driver actually touches.
package xdmaip

import (
	"fmt"

	"fpgavirtio/internal/fpga"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Register-map bases within the DMA BAR.
const (
	H2CChannelBase = 0x0000
	C2HChannelBase = 0x1000
	IRQBlockBase   = 0x2000
	ConfigBase     = 0x3000
	H2CSGDMABase   = 0x4000
	C2HSGDMABase   = 0x5000
)

// Channel-block register offsets (relative to the channel base).
const (
	RegChanIdentifier = 0x00
	RegChanControl    = 0x04
	RegChanStatus     = 0x40
	RegChanCompleted  = 0x48
	// RegPollWbLo/Hi hold the host address of the channel's poll-mode
	// writeback slot (PG195's pollmode_lo/hi_wb_addr): when
	// CtrlPollModeWB is set the engine DMA-writes a 4-byte status word
	// there at the end of each run instead of signalling MSI-X.
	RegPollWbLo = 0x88
	RegPollWbHi = 0x8c
)

// SGDMA-block register offsets (relative to the SGDMA base).
const (
	RegDescLo  = 0x80
	RegDescHi  = 0x84
	RegDescAdj = 0x88
)

// IRQ-block register offsets (relative to IRQBlockBase).
const (
	RegIRQChanEnable = 0x10
	RegIRQUserEnable = 0x04
)

// Control register bits.
const (
	CtrlRun            = 1 << 0
	CtrlIEDescStopped  = 1 << 1
	CtrlIEDescComplete = 1 << 2
	// CtrlPollModeWB enables poll-mode writeback (PG195 control bit
	// 26): the engine reports run completion by DMA-writing the
	// writeback word to RegPollWbLo/Hi rather than raising MSI-X.
	CtrlPollModeWB = 1 << 26
)

// Status register bits.
const (
	StatusBusy         = 1 << 0
	StatusDescStopped  = 1 << 1
	StatusDescComplete = 1 << 2
	// StatusDescError reports a descriptor-engine error (PG195 calls
	// this decode/magic-stopped); the engine halts the run without
	// moving data and the driver must reset the channel.
	StatusDescError = 1 << 19
)

// Descriptor control bits (dword 0, low byte).
const (
	DescStop      = 1 << 0
	DescCompleted = 1 << 1
	DescEOP       = 1 << 4
)

// DescMagic occupies the top half of descriptor dword 0.
const DescMagic = 0xad4b

// Poll-mode writeback word bits. The word travels through the same
// fault-injectable DMA-write path as data, so a poll-mode driver sees
// engine aborts in the error bit with no interrupt involved.
const (
	WbDone = 1 << 0 // run finished (with or without error)
	WbErr  = 1 << 1 // run halted on a descriptor error
)

// WbSize is the writeback word's size in bytes.
const WbSize = 4

// DescSize is the XDMA descriptor size in bytes.
const DescSize = 32

// MSI-X vector assignment of the model.
const (
	VecH2C      = 0
	VecC2H      = 1
	VecUserBase = 2
)

// Identifier register values (subsystem identifier | target).
const (
	idH2C    = 0x1fc00000
	idC2H    = 0x1fc10000
	idConfig = 0x1fc30000
)

// Descriptor is the in-memory XDMA transfer descriptor.
type Descriptor struct {
	Control uint32 // DescStop | DescCompleted | DescEOP
	Len     uint32
	Src     uint64 // H2C: host address; C2H: card address
	Dst     uint64 // H2C: card address; C2H: host address
	Next    uint64 // next descriptor host address (if !DescStop)
}

// Encode writes the descriptor in its 32-byte wire format at a in m.
func (d Descriptor) Encode(m *mem.Memory, a mem.Addr) {
	m.PutU32(a+0, uint32(DescMagic)<<16|d.Control&0xff)
	m.PutU32(a+4, d.Len)
	m.PutU64(a+8, d.Src)
	m.PutU64(a+16, d.Dst)
	m.PutU64(a+24, d.Next)
}

// DecodeDescriptor parses a 32-byte descriptor image.
func DecodeDescriptor(raw []byte) (Descriptor, error) {
	if len(raw) != DescSize {
		return Descriptor{}, fmt.Errorf("xdmaip: descriptor is %d bytes, want %d", len(raw), DescSize)
	}
	u32 := func(o int) uint32 {
		return uint32(raw[o]) | uint32(raw[o+1])<<8 | uint32(raw[o+2])<<16 | uint32(raw[o+3])<<24
	}
	u64 := func(o int) uint64 { return uint64(u32(o)) | uint64(u32(o+4))<<32 }
	d0 := u32(0)
	if d0>>16 != DescMagic {
		return Descriptor{}, fmt.Errorf("xdmaip: bad descriptor magic %#x", d0>>16)
	}
	return Descriptor{
		Control: d0 & 0xff,
		Len:     u32(4),
		Src:     u64(8),
		Dst:     u64(16),
		Next:    u64(24),
	}, nil
}

// Datapath constants of the modeled IP, calibrated so the measured
// hardware latencies land in the paper's ranges on the Gen2 x2 link.
// The Artix-7 engine is simple: it keeps a single read request in
// flight, so every Max_Payload_Size chunk of a host read is a full bus
// round trip plus engine think time — this is what makes hardware time
// grow nearly linearly with payload in Figures 4 and 5.
const (
	// AXIWidthBytes is the 128-bit AXI datapath at the fabric clock.
	AXIWidthBytes = 16
	// programCycles is charged per data-mover command issued by the
	// card side (the VirtIO controller programming the engine, or a
	// channel FSM dispatching one descriptor's move).
	programCycles = 64
	// chunkReadCycles is per-MPS-chunk engine overhead on reads
	// (request generation, tag tracking, completion reassembly).
	chunkReadCycles = 70
	// chunkWriteCycles is per-MPS-chunk overhead on posted writes.
	chunkWriteCycles = 56
	// engineStartCycles is the channel FSM's run-bit-to-first-fetch
	// latency in descriptor mode.
	engineStartCycles = 180
	// descFetchSetupCycles precedes each descriptor fetch.
	descFetchSetupCycles = 24
	// writebackCycles covers completed-count writeback and interrupt
	// generation at the end of a descriptor list.
	writebackCycles = 120
)

// Port is the card-side direct interface to the DMA engine data movers,
// used by the VirtIO controller in descriptor-bypass fashion: the
// controller supplies host addresses itself instead of having the
// engine walk an XDMA descriptor list.
type Port struct {
	sim     *sim.Sim
	movers  *movers
	program sim.Duration // engine programming per transfer

	reads, writes, readBytes, writeBytes *telemetry.Counter
	readSpan, writeSpan                  sim.SpanKind
}

// NewPort returns a direct port on the endpoint's DMA machinery.
func NewPort(s *sim.Sim, ep *pcie.Endpoint, clk *fpga.Clock) *Port {
	reg := ep.Metrics()
	return &Port{
		sim:        s,
		movers:     newMovers(ep, clk),
		program:    clk.Cycles(programCycles),
		readSpan:   s.SpanKind(telemetry.LayerDMAEngine, "", "port.read"),
		writeSpan:  s.SpanKind(telemetry.LayerDMAEngine, "", "port.write"),
		reads:      reg.Counter(telemetry.MetricDMAPortReads),
		writes:     reg.Counter(telemetry.MetricDMAPortWrites),
		readBytes:  reg.Counter(telemetry.MetricDMAPortReadBytes),
		writeBytes: reg.Counter(telemetry.MetricDMAPortWriteBytes),
	}
}

// HostRead fetches n bytes from host memory (H2C direction), blocking
// the calling fabric process for engine programming plus one bus round
// trip per MPS-sized chunk (single outstanding request).
func (pt *Port) HostRead(p *sim.Proc, addr mem.Addr, n int) []byte {
	out := make([]byte, n)
	pt.HostReadInto(p, addr, out)
	return out
}

// HostReadInto is HostRead into a caller-supplied buffer — the
// allocation-free form. Timing and bus traffic are identical to
// HostRead.
func (pt *Port) HostReadInto(p *sim.Proc, addr mem.Addr, dst []byte) {
	sp := pt.open(dst, false)
	pt.movers.move(p, pt.program, addr, dst, false)
	sp.End()
}

// HostWrite pushes data to host memory (C2H direction) with per-chunk
// engine overhead on top of wire serialization.
func (pt *Port) HostWrite(p *sim.Proc, addr mem.Addr, data []byte) {
	sp := pt.open(data, true)
	pt.movers.move(p, pt.program, addr, data, true)
	sp.End()
}

// open counts a transfer of buf and opens its span.
func (pt *Port) open(buf []byte, write bool) sim.SpanRef {
	if write {
		pt.writes.Inc()
		pt.writeBytes.Add(int64(len(buf)))
		return pt.sim.BeginSpan(pt.writeSpan)
	}
	pt.reads.Inc()
	pt.readBytes.Add(int64(len(buf)))
	return pt.sim.BeginSpan(pt.readSpan)
}

// Transfer is one port transfer that another process's SleepSteps step
// drives inline, as an SGDMA engine drives its movers, so the process
// is not switched into when the transfer ends. It costs the same bus
// time and opens and closes its span at the same instants as
// HostReadInto or HostWrite.
type Transfer struct {
	m  *mover
	sp sim.SpanRef
}

// Begin starts a transfer for p: a read of host memory at addr into
// buf or, when write is set, a write of buf to it. The caller's step
// returns each nonzero result of Step until Step returns 0, then hands
// the transfer to Finish.
func (pt *Port) Begin(p *sim.Proc, addr mem.Addr, buf []byte, write bool) Transfer {
	sp := pt.open(buf, write)
	return Transfer{m: pt.movers.get(p, pt.program, addr, buf, write), sp: sp}
}

// Step advances the transfer: it returns a sleep or sim.Blocked for the
// caller's step to return, or 0 once the transfer has ended.
func (t *Transfer) Step() sim.Duration { return t.m.run() }

// Finish closes an ended transfer's span and frees its mover.
func (pt *Port) Finish(t Transfer) {
	pt.movers.put(t.m)
	t.sp.End()
}

// movers is an endpoint's pool of card-side data movers. A transfer is
// split into MPS-sized chunks, each charged the engine's per-chunk
// overhead: a read chunk is then a full bus round trip (the engine
// keeps one request in flight), a write chunk a posted write that
// holds the engine while the link serializes it. Each transfer runs as
// one pooled step machine, so its waits run on whichever context fires
// the wake that ends them. A blocking port transfer runs it under
// sim.Proc.SleepSteps (move), and the calling fabric process is
// switched into once, when the transfer ends; an SGDMA engine, or a
// step machine through Port.Begin, drives it from its own step (get,
// put), and is not switched into at all.
type movers struct {
	ep         *pcie.Endpoint
	mps        int
	chunkRead  sim.Duration // engine overhead per read chunk
	chunkWrite sim.Duration // engine overhead per write chunk
	free       *mover       // idle movers, linked through next

	// blocking, set only by tests, runs each transfer through the
	// blocking chunk loop the step machine is checked against.
	blocking func(p *sim.Proc, m *mover)
}

// mover is one transfer's step machine, see movers.
//
//fvlint:hotpath
type mover struct {
	ms    *movers
	p     *sim.Proc
	pc    uint8 // where the step resumes: moveLead, moveChunk, ...
	write bool
	lead  sim.Duration // slept before the first chunk
	addr  mem.Addr
	buf   []byte        // the read's destination or the write's data
	off   int           // offset of the next chunk within buf
	rd    *pcie.DMARead // the chunk read in flight
	step  func() sim.Duration
	next  *mover // next idle mover
}

// The points a mover's step resumes at.
const (
	moveLead  = iota // sleep the lead
	moveChunk        // charge the next chunk's engine overhead, or end
	moveIssue        // issue the chunk's read or write
	moveAwait        // wait for the chunk read's completions
)

func newMovers(ep *pcie.Endpoint, clk *fpga.Clock) *movers {
	return &movers{
		ep:         ep,
		mps:        ep.Link().Config().MPS,
		chunkRead:  clk.Cycles(chunkReadCycles),
		chunkWrite: clk.Cycles(chunkWriteCycles),
	}
}

// get takes an idle mover and sets it to block p for lead, then move
// buf between the card and host memory at addr: reading into buf from
// the host, or writing buf to it. The caller drives the mover's step
// until it returns 0, then returns it with put.
func (ms *movers) get(p *sim.Proc, lead sim.Duration, addr mem.Addr, buf []byte, write bool) *mover {
	m := ms.free
	if m != nil {
		ms.free = m.next
	} else {
		m = &mover{ms: ms}
		m.step = m.run
	}
	m.p, m.pc, m.write, m.lead, m.addr, m.buf, m.off = p, moveLead, write, lead, addr, buf, 0
	return m
}

// put returns a finished mover to the idle pool.
func (ms *movers) put(m *mover) {
	m.buf = nil
	m.next = ms.free
	ms.free = m
}

// move is get, the mover's step run by p.SleepSteps, and put: it
// blocks p through the whole transfer.
func (ms *movers) move(p *sim.Proc, lead sim.Duration, addr mem.Addr, buf []byte, write bool) {
	m := ms.get(p, lead, addr, buf, write)
	if ms.blocking != nil {
		ms.blocking(p, m)
	} else {
		p.SleepSteps(m.step)
	}
	ms.put(m)
}

// run is the mover's SleepSteps step: the lead, then per chunk the
// engine overhead and the chunk's bus time, a read's completions or a
// write's serialization.
func (m *mover) run() sim.Duration {
	ms := m.ms
	for {
		switch m.pc {
		case moveLead:
			m.pc = moveChunk
			if m.lead != 0 {
				return m.lead
			}
		case moveChunk:
			if m.off == len(m.buf) {
				return 0
			}
			m.pc = moveIssue
			if m.write {
				return ms.chunkWrite
			}
			return ms.chunkRead
		case moveIssue:
			c := min(len(m.buf)-m.off, ms.mps)
			a, chunk := m.addr+mem.Addr(m.off), m.buf[m.off:m.off+c]
			m.off += c
			if m.write {
				m.pc = moveChunk
				if d := ms.ep.PostDMAWrite(a, chunk).Sub(m.p.Now()); d > 0 {
					return d
				}
				continue
			}
			m.rd = ms.ep.BeginDMARead(a, chunk)
			m.pc = moveAwait
		case moveAwait:
			if m.rd.Await(m.p) {
				return sim.Blocked
			}
			if !m.rd.Advance() {
				m.rd = nil
				m.pc = moveChunk
			}
		}
	}
}
