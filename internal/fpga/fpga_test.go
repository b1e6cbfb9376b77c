package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgavirtio/internal/sim"
)

func TestClockPeriod(t *testing.T) {
	clk := Default125MHz()
	if clk.Period() != sim.Ns(8) {
		t.Fatalf("125MHz period = %v, want 8ns", clk.Period())
	}
	if NewClock(250).Period() != sim.Ns(4) {
		t.Fatal("250MHz period wrong")
	}
	if clk.Cycles(10) != sim.Ns(80) {
		t.Fatalf("Cycles(10) = %v", clk.Cycles(10))
	}
}

func TestCyclesFor(t *testing.T) {
	clk := Default125MHz()
	cases := []struct{ n, w, want int }{
		{0, 16, 0}, {1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {1024, 16, 64},
	}
	for _, c := range cases {
		if got := clk.CyclesFor(c.n, c.w); got != c.want {
			t.Errorf("CyclesFor(%d,%d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}

func TestBRAM(t *testing.T) {
	b := NewBRAM("bram0", 4096)
	b.PutU32(0, 0x12345678)
	if b.U32(0) != 0x12345678 {
		t.Fatal("BRAM round trip failed")
	}
	if b.Name() != "bram0" {
		t.Fatal("name lost")
	}
}

func TestPerfCounterQuantization(t *testing.T) {
	clk := Default125MHz()
	pc := NewPerfCounter(clk, "dma")
	pc.Begin(sim.Time(0))
	d := pc.End(sim.Time(sim.Ns(100))) // 100ns -> 96ns (12 cycles)
	if d != sim.Ns(96) {
		t.Fatalf("quantized = %v, want 96ns", d)
	}
	if len(pc.Samples()) != 1 {
		t.Fatal("sample not recorded")
	}
}

func TestPerfCounterQuantizeProperty(t *testing.T) {
	clk := Default125MHz()
	f := func(ns uint16) bool {
		pc := NewPerfCounter(clk, "x")
		pc.Begin(0)
		d := pc.End(sim.Time(sim.Ns(int64(ns))))
		raw := sim.Ns(int64(ns))
		return d <= raw && raw-d < sim.Ns(8) && d%sim.Ns(8) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfCounterMisusePanics(t *testing.T) {
	clk := Default125MHz()
	pc := NewPerfCounter(clk, "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("End without Begin should panic")
			}
		}()
		pc.End(0)
	}()
	pc.Begin(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Begin should panic")
			}
		}()
		pc.Begin(0)
	}()
}

func TestPerfCounterTakeLastAndReset(t *testing.T) {
	clk := Default125MHz()
	pc := NewPerfCounter(clk, "x")
	for i := 1; i <= 3; i++ {
		pc.Begin(0)
		pc.End(sim.Time(sim.Ns(int64(8 * i))))
	}
	d, ok := pc.TakeLast()
	if !ok || d != sim.Ns(24) {
		t.Fatalf("TakeLast = %v,%v", d, ok)
	}
	if len(pc.Samples()) != 2 {
		t.Fatal("TakeLast did not pop")
	}
	pc.Reset()
	if len(pc.Samples()) != 0 {
		t.Fatal("Reset did not clear")
	}
	if _, ok := pc.TakeLast(); ok {
		t.Fatal("TakeLast on empty should report !ok")
	}
}

func TestRegFile(t *testing.T) {
	r := NewRegFile()
	r.Set(0x10, 7)
	if r.Read(0x10) != 7 {
		t.Fatal("Set/Read failed")
	}
	var hooked uint32
	r.OnWrite(0x20, func(v uint32) { hooked = v })
	r.Write(0x20, 99)
	if hooked != 99 || r.Get(0x20) != 99 {
		t.Fatal("write hook or storage failed")
	}
	calls := 0
	r.OnRead(0x30, func() uint32 { calls++; return 42 })
	if r.Read(0x30) != 42 || calls != 1 {
		t.Fatal("read hook failed")
	}
}

// refRegFile is the map-backed register file RegFile must behave
// exactly like.
type refRegFile struct {
	regs    map[uint64]uint32
	onWrite map[uint64]func(v uint32)
	onRead  map[uint64]func() uint32
}

func (r *refRegFile) Read(off uint64) uint32 {
	if fn, ok := r.onRead[off]; ok {
		return fn()
	}
	return r.regs[off]
}

func (r *refRegFile) Write(off uint64, v uint32) {
	r.regs[off] = v
	if fn, ok := r.onWrite[off]; ok {
		fn(v)
	}
}

// TestRegFileMatchesMapReference drives RegFile and the map-backed
// reference through the same seeded sequence of Set, Get, Read, Write,
// OnWrite and OnRead calls. Offsets mix dense registers, unaligned
// offsets, offsets at 0x100 and beyond inside a block, and offsets at
// or past 64 KiB; hooks land before and after writes and are
// replaced; reads of never-written registers are included. Every
// returned value and every hook call must match.
func TestRegFileMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offset := func() uint64 {
		block := uint64(rng.Intn(16)) << 12
		switch rng.Intn(6) {
		case 0:
			return block | uint64(rng.Intn(0x100)) // any alignment
		case 1:
			return block | 0x100 | uint64(rng.Intn(0xf00))&^3 // past the block's registers
		case 2:
			return 0x10000 + uint64(rng.Intn(1<<20))&^3 // past 64 KiB
		default:
			return block | uint64(rng.Intn(0x40))<<2 // dense
		}
	}
	got := NewRegFile()
	want := &refRegFile{
		regs:    map[uint64]uint32{},
		onWrite: map[uint64]func(v uint32){},
		onRead:  map[uint64]func() uint32{},
	}
	type call struct {
		op  int
		off uint64
		v   uint32
	}
	var gotCalls, wantCalls []call
	var offs []uint64 // offsets used so far, revisited half the time
	for op := 0; op < 200_000; op++ {
		off := offset()
		if len(offs) > 0 && rng.Intn(2) == 0 {
			off = offs[rng.Intn(len(offs))]
		} else {
			offs = append(offs, off)
		}
		v := rng.Uint32()
		switch k := rng.Intn(20); {
		case k < 6:
			got.Set(off, v)
			want.regs[off] = v
		case k < 10:
			got.Write(off, v)
			want.Write(off, v)
		case k < 13:
			if g, w := got.Get(off), want.regs[off]; g != w {
				t.Fatalf("op %d: Get(%#x) = %#x, reference %#x", op, off, g, w)
			}
		case k < 18:
			if g, w := got.Read(off), want.Read(off); g != w {
				t.Fatalf("op %d: Read(%#x) = %#x, reference %#x", op, off, g, w)
			}
		case k == 18:
			got.OnWrite(off, func(v uint32) { gotCalls = append(gotCalls, call{op, off, v}) })
			want.onWrite[off] = func(v uint32) { wantCalls = append(wantCalls, call{op, off, v}) }
		default:
			got.OnRead(off, func() uint32 { gotCalls = append(gotCalls, call{op, off, 0}); return uint32(op) ^ v })
			want.onRead[off] = func() uint32 { wantCalls = append(wantCalls, call{op, off, 0}); return uint32(op) ^ v }
		}
		if len(gotCalls) != len(wantCalls) || len(gotCalls) > 0 && gotCalls[len(gotCalls)-1] != wantCalls[len(wantCalls)-1] {
			t.Fatalf("op %d at %#x: hook calls %v, reference %v", op, off, gotCalls, wantCalls)
		}
	}
	if len(gotCalls) == 0 {
		t.Fatal("no hook ran; the hook paths are unexercised")
	}
}

var regSink uint32

// BenchmarkRegFile times the per-packet register traffic of an XDMA
// engine: hookless Get/Set of a channel's control and status words,
// a bus Write to a hooked control register and a bus Read of a hooked
// read-clear status mirror.
func BenchmarkRegFile(b *testing.B) {
	r := NewRegFile()
	r.OnWrite(0x1004, func(uint32) {})
	r.OnRead(0x1044, func() uint32 { return r.Get(0x1040) })
	for i := 0; i < b.N; i++ {
		r.Set(0x1040, uint32(i))
		regSink += r.Get(0x1004) + r.Get(0x1040)
		r.Write(0x1004, uint32(i))
		regSink += r.Read(0x1044) + r.Read(0x2004)
	}
}
