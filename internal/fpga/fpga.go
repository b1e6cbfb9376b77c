// Package fpga models the on-card fabric the paper's designs are built
// from: a fabric clock (125 MHz in the testbed), block RAM, and the
// hardware performance counters used to separate hardware from software
// latency in Figures 4 and 5.
package fpga

import (
	"fmt"
	"math/bits"
	"slices"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

// Clock is a fabric clock domain. All hardware costs are expressed in
// cycles of a Clock; the paper's designs run at 125 MHz (8 ns period).
type Clock struct {
	period sim.Duration
}

// NewClock returns a clock with the given frequency in MHz.
func NewClock(mhz int) *Clock {
	if mhz <= 0 {
		panic("fpga: non-positive clock frequency")
	}
	return &Clock{period: sim.Duration(1_000_000/mhz) * sim.Picosecond}
}

// Default125MHz is the testbed fabric clock.
func Default125MHz() *Clock { return NewClock(125) }

// Period returns one cycle's duration.
func (c *Clock) Period() sim.Duration { return c.period }

// Cycles converts a cycle count to a duration.
func (c *Clock) Cycles(n int) sim.Duration { return sim.Duration(n) * c.period }

// CyclesFor returns the number of cycles (rounded up) needed to move n
// bytes through a datapath of width bytes per cycle.
func (c *Clock) CyclesFor(n, widthBytes int) int {
	if widthBytes <= 0 {
		panic("fpga: non-positive datapath width")
	}
	return (n + widthBytes - 1) / widthBytes
}

// String describes the clock.
func (c *Clock) String() string {
	return fmt.Sprintf("%.0fMHz", 1e6/float64(c.period/sim.Picosecond))
}

// BRAM is on-card memory (block RAM or, for larger regions, the
// behavioural equivalent of board DRAM). Timing is charged by the
// engines that access it, not here.
type BRAM struct {
	*mem.Memory
	name string
}

// NewBRAM returns a named on-card memory of the given size.
func NewBRAM(name string, size int) *BRAM {
	return &BRAM{Memory: mem.New(size), name: name}
}

// Name reports the BRAM instance name.
func (b *BRAM) Name() string { return b.name }

// PerfCounter is a free-running hardware latency counter: Begin latches
// the current time, End produces an interval quantized to the fabric
// clock period — the 8 ns resolution the paper reports for its
// hardware measurements. Samples accumulate for later retrieval.
type PerfCounter struct {
	clk     *Clock
	name    string
	started bool
	begin   sim.Time
	samples []sim.Duration
}

// NewPerfCounter returns an idle counter on clk.
func NewPerfCounter(clk *Clock, name string) *PerfCounter {
	return &PerfCounter{clk: clk, name: name}
}

// Name reports the counter name.
func (pc *PerfCounter) Name() string { return pc.name }

// Begin latches the interval start. Beginning twice without End panics:
// in hardware that is a one-bit state machine and cannot double-start.
func (pc *PerfCounter) Begin(now sim.Time) {
	if pc.started {
		panic("fpga: perf counter " + pc.name + " already started")
	}
	pc.started = true
	pc.begin = now
}

// End closes the interval opened by Begin, adding a quantized sample.
func (pc *PerfCounter) End(now sim.Time) sim.Duration {
	if !pc.started {
		panic("fpga: perf counter " + pc.name + " not started")
	}
	pc.started = false
	d := pc.quantize(now.Sub(pc.begin))
	pc.samples = append(pc.samples, d)
	return d
}

func (pc *PerfCounter) quantize(d sim.Duration) sim.Duration {
	step := pc.clk.Period()
	return d - d%step
}

// Samples returns the recorded intervals (live slice; callers must not
// modify it).
func (pc *PerfCounter) Samples() []sim.Duration { return pc.samples }

// Reset discards recorded samples. An interval that is currently open
// stays open (the hardware may be mid-operation); its eventual End
// lands in the fresh sample list.
func (pc *PerfCounter) Reset() {
	pc.samples = pc.samples[:0]
}

// TakeLast removes and returns the most recent sample; ok is false if
// none exist. Experiment harnesses use this to pair each operation with
// its hardware time.
func (pc *PerfCounter) TakeLast() (sim.Duration, bool) {
	if len(pc.samples) == 0 {
		return 0, false
	}
	d := pc.samples[len(pc.samples)-1]
	pc.samples = pc.samples[:len(pc.samples)-1]
	return d, true
}

// Register-file layout: a BAR divides into 4 KiB register blocks
// (the XDMA engine, IRQ, config and SGDMA blocks), and a block's
// registers sit in its first 0x100 bytes. Those aligned offsets of a
// 64 KiB BAR are stored densely; every other offset lives in a map.
const (
	regBlockShift = 12 // off>>regBlockShift is the block
	regBlocks     = 16 // blocks in a 64 KiB BAR
	regBlockWords = 64 // 32-bit registers in a block's first 0x100 bytes
	// regSparseMask holds the offset bits outside the dense layout:
	// misalignment, 0x100..0xfff inside a block, and >= 64 KiB.
	regSparseMask = ^uint64(regBlocks<<regBlockShift-1) | 0xf03
)

// RegFile is a small helper for 32-bit device register blocks: storage
// plus optional per-offset read and write hooks, used by the device
// models to implement their BAR handlers. Dense offsets keep their
// values and hooks in arrays and slices, so a register touched on every
// packet costs a few loads; the maps hold every other offset.
type RegFile struct {
	words [regBlocks][regBlockWords]uint32
	// hooked[b] bit w is set when dense word w of block b has hooks;
	// they are hooks[hookBase[b] + the set bits of hooked[b] below w].
	hooked   [regBlocks]uint64
	hookBase [regBlocks]uint16
	hooks    []regHooks

	regs        map[uint64]uint32    // offsets outside the dense layout
	sparseHooks map[uint64]*regHooks // their hooks
}

// regHooks are one register's hooks; either may be nil.
type regHooks struct {
	read  func() uint32
	write func(v uint32)
}

// NewRegFile returns an empty register file.
func NewRegFile() *RegFile {
	return &RegFile{
		regs:        make(map[uint64]uint32),
		sparseHooks: make(map[uint64]*regHooks),
	}
}

// dense reports the block and word of off in the dense layout, or
// ok == false when off is stored in the map.
func dense(off uint64) (block, word uint64, ok bool) {
	return off >> regBlockShift, off & 0xff >> 2, off&regSparseMask == 0
}

// Set stores a register value without invoking hooks.
func (r *RegFile) Set(off uint64, v uint32) {
	if b, w, ok := dense(off); ok {
		r.words[b][w] = v
		return
	}
	r.regs[off] = v
}

// Get loads a register value without invoking hooks.
func (r *RegFile) Get(off uint64) uint32 {
	if b, w, ok := dense(off); ok {
		return r.words[b][w]
	}
	return r.regs[off]
}

// hooksAt returns off's hooks, or nil if it has none.
func (r *RegFile) hooksAt(off uint64) *regHooks {
	b, w, ok := dense(off)
	if !ok {
		return r.sparseHooks[off]
	}
	bit := uint64(1) << w
	if r.hooked[b]&bit == 0 {
		return nil
	}
	return &r.hooks[int(r.hookBase[b])+bits.OnesCount64(r.hooked[b]&(bit-1))]
}

// addHooks returns off's hooks, adding empty ones if it has none.
func (r *RegFile) addHooks(off uint64) *regHooks {
	if h := r.hooksAt(off); h != nil {
		return h
	}
	b, w, ok := dense(off)
	if !ok {
		h := &regHooks{}
		r.sparseHooks[off] = h
		return h
	}
	r.hooked[b] |= 1 << w
	for later := b + 1; later < regBlocks; later++ {
		r.hookBase[later]++
	}
	i := int(r.hookBase[b]) + bits.OnesCount64(r.hooked[b]&(1<<w-1))
	r.hooks = slices.Insert(r.hooks, i, regHooks{})
	return &r.hooks[i]
}

// OnWrite installs a side-effect hook for writes to off.
func (r *RegFile) OnWrite(off uint64, fn func(v uint32)) { r.addHooks(off).write = fn }

// OnRead installs a compute hook for reads of off (overrides storage).
func (r *RegFile) OnRead(off uint64, fn func() uint32) { r.addHooks(off).read = fn }

// Read services a bus read of a 32-bit register.
func (r *RegFile) Read(off uint64) uint32 {
	if h := r.hooksAt(off); h != nil && h.read != nil {
		return h.read()
	}
	return r.Get(off)
}

// Write services a bus write of a 32-bit register.
func (r *RegFile) Write(off uint64, v uint32) {
	r.Set(off, v)
	if h := r.hooksAt(off); h != nil && h.write != nil {
		h.write(v)
	}
}
