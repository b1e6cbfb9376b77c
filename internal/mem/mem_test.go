package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1 << 16)
	src := []byte{1, 2, 3, 4, 5}
	m.Write(100, src)
	got := m.Read(100, 5)
	if !bytes.Equal(got, src) {
		t.Fatalf("got %v, want %v", got, src)
	}
	dst := make([]byte, 3)
	m.ReadInto(101, dst)
	if !bytes.Equal(dst, []byte{2, 3, 4}) {
		t.Fatalf("ReadInto got %v", dst)
	}
}

func TestReadIsCopy(t *testing.T) {
	m := New(64)
	m.Write(0, []byte{9})
	got := m.Read(0, 1)
	got[0] = 42
	if m.U8(0) != 9 {
		t.Fatal("Read aliases internal storage")
	}
}

func TestScalarAccessorsLittleEndian(t *testing.T) {
	m := New(64)
	m.PutU16(0, 0x1234)
	if m.U8(0) != 0x34 || m.U8(1) != 0x12 {
		t.Fatal("PutU16 not little-endian")
	}
	if m.U16(0) != 0x1234 {
		t.Fatal("U16 round trip failed")
	}
	m.PutU32(8, 0xdeadbeef)
	if m.U32(8) != 0xdeadbeef {
		t.Fatal("U32 round trip failed")
	}
	if m.U8(8) != 0xef {
		t.Fatal("PutU32 not little-endian")
	}
	m.PutU64(16, 0x0123456789abcdef)
	if m.U64(16) != 0x0123456789abcdef {
		t.Fatal("U64 round trip failed")
	}
	if m.U8(16) != 0xef || m.U8(23) != 0x01 {
		t.Fatal("PutU64 not little-endian")
	}
}

func TestScalarRoundTripProperty(t *testing.T) {
	m := New(1 << 12)
	f16 := func(off uint8, v uint16) bool {
		a := Addr(off) * 2
		m.PutU16(a, v)
		return m.U16(a) == v
	}
	f32 := func(off uint8, v uint32) bool {
		a := Addr(off) * 4
		m.PutU32(a, v)
		return m.U32(a) == v
	}
	f64 := func(off uint8, v uint64) bool {
		a := Addr(off) * 8
		m.PutU64(a, v)
		return m.U64(a) == v
	}
	for _, f := range []any{f16, f32, f64} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestFill(t *testing.T) {
	m := New(32)
	m.Fill(4, 8, 0xaa)
	for i := 0; i < 32; i++ {
		want := byte(0)
		if i >= 4 && i < 12 {
			want = 0xaa
		}
		if m.U8(Addr(i)) != want {
			t.Fatalf("byte %d = %#x, want %#x", i, m.U8(Addr(i)), want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(16)
	cases := []func(){
		func() { m.Read(8, 9) },
		func() { m.Write(16, []byte{1}) },
		func() { m.U32(13) },
		func() { m.PutU64(9, 0) },
		func() { m.ReadInto(0, make([]byte, 17)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAllocatorAlignment(t *testing.T) {
	m := New(1 << 16)
	al := NewAllocator(m, 16, 1<<15)
	a := al.Alloc(10, 64)
	if a%64 != 0 {
		t.Fatalf("addr %#x not 64-aligned", uint64(a))
	}
	b := al.Alloc(1, 4096)
	if b%4096 != 0 {
		t.Fatalf("addr %#x not page-aligned", uint64(b))
	}
	if b < a+10 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocatorZeroesAndExhausts(t *testing.T) {
	m := New(256)
	m.Fill(0, 256, 0xff)
	al := NewAllocator(m, 0, 256)
	a := al.Alloc(16, 16)
	for i := 0; i < 16; i++ {
		if m.U8(a+Addr(i)) != 0 {
			t.Fatal("alloc did not zero region")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected exhaustion panic")
		}
	}()
	al.Alloc(1024, 1)
}

func TestAllocatorProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		al := NewAllocator(m, 0, 1<<20)
		type region struct{ a, n Addr }
		var regs []region
		for _, sz := range sizes {
			n := int(sz)%512 + 1
			align := 1 << (int(sz) % 8)
			a := al.Alloc(n, align)
			if int(a)%align != 0 {
				return false
			}
			for _, r := range regs {
				if a < r.a+r.n && r.a < a+Addr(n) {
					return false // overlap
				}
			}
			regs = append(regs, region{a, Addr(n)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorBadAlignPanics(t *testing.T) {
	m := New(64)
	al := NewAllocator(m, 0, 64)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two alignment")
		}
	}()
	al.Alloc(4, 3)
}

func TestAllocatorRemaining(t *testing.T) {
	m := New(128)
	al := NewAllocator(m, 0, 128)
	if got := al.end - al.next; got != 128 {
		t.Fatalf("remaining = %d", got)
	}
	al.Alloc(28, 1)
	if got := al.end - al.next; got != 100 {
		t.Fatalf("remaining = %d, want 100", got)
	}
}

// TestPagedMatchesFlatReference drives random operations against a
// flat []byte model of the memory. The size is not a multiple of the
// page size, and addresses cluster around page boundaries so that most
// accesses straddle two pages or end on the last byte.
func TestPagedMatchesFlatReference(t *testing.T) {
	const size = 5*pageSize + 123
	m := New(size)
	ref := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	addr := func(n int) Addr {
		// A page boundary (or the end of memory) plus a small offset
		// either side, clamped so [a, a+n) stays in range.
		b := rng.Intn(size/pageSize+1) * pageSize
		a := b + rng.Intn(2*16+1) - 16 - rng.Intn(n+1)
		return Addr(max(0, min(a, size-n)))
	}
	for i := 0; i < 20000; i++ {
		switch op := rng.Intn(9); op {
		case 0, 1: // Read / ReadInto
			n := rng.Intn(2*pageSize + 64)
			a := addr(n)
			var got []byte
			if op == 0 {
				got = m.Read(a, n)
			} else {
				got = make([]byte, n)
				for j := range got {
					got[j] = 0xee // ReadInto must overwrite every byte
				}
				m.ReadInto(a, got)
			}
			if !bytes.Equal(got, ref[a:int(a)+n]) {
				t.Fatalf("op %d: read [%#x, +%d) differs from reference", i, uint64(a), n)
			}
		case 2: // Write
			n := rng.Intn(2*pageSize + 64)
			a := addr(n)
			src := make([]byte, n)
			rng.Read(src)
			m.Write(a, src)
			copy(ref[a:], src)
		case 3: // Fill, zero or not
			n := rng.Intn(2*pageSize + 64)
			a := addr(n)
			v := byte(0)
			if rng.Intn(2) == 0 {
				v = byte(rng.Intn(256))
			}
			m.Fill(a, n, v)
			for j := 0; j < n; j++ {
				ref[int(a)+j] = v
			}
		case 4: // PutU8 / U8
			a := addr(1)
			v := byte(rng.Intn(256))
			m.PutU8(a, v)
			ref[a] = v
			if m.U8(a) != v {
				t.Fatalf("op %d: U8(%#x) = %#x, want %#x", i, uint64(a), m.U8(a), v)
			}
		case 5: // PutU16
			a := addr(2)
			v := uint16(rng.Uint32())
			m.PutU16(a, v)
			binary.LittleEndian.PutUint16(ref[a:], v)
		case 6: // PutU32
			a := addr(4)
			v := rng.Uint32()
			m.PutU32(a, v)
			binary.LittleEndian.PutUint32(ref[a:], v)
		case 7: // PutU64
			a := addr(8)
			v := rng.Uint64()
			m.PutU64(a, v)
			binary.LittleEndian.PutUint64(ref[a:], v)
		case 8: // scalar reads
			a2, a4, a8 := addr(2), addr(4), addr(8)
			if got, want := m.U16(a2), binary.LittleEndian.Uint16(ref[a2:]); got != want {
				t.Fatalf("op %d: U16(%#x) = %#x, want %#x", i, uint64(a2), got, want)
			}
			if got, want := m.U32(a4), binary.LittleEndian.Uint32(ref[a4:]); got != want {
				t.Fatalf("op %d: U32(%#x) = %#x, want %#x", i, uint64(a4), got, want)
			}
			if got, want := m.U64(a8), binary.LittleEndian.Uint64(ref[a8:]); got != want {
				t.Fatalf("op %d: U64(%#x) = %#x, want %#x", i, uint64(a8), got, want)
			}
		}
	}
	if got := m.Read(0, size); !bytes.Equal(got, ref) {
		t.Fatal("final contents differ from reference")
	}
}

// TestAllocAndReadTouchNoPages pins the demand-paging contract that
// keeps session boot cheap: carving a zeroed region and reading it back
// allocates nothing and creates no page.
func TestAllocAndReadTouchNoPages(t *testing.T) {
	const region = 1 << 20
	m := New(64 << 20)
	al := NewAllocator(m, 0x10000, m.Size()-0x10000)
	dst := make([]byte, region)
	allocs := testing.AllocsPerRun(10, func() {
		a := al.Alloc(region, pageSize)
		m.ReadInto(a, dst)
	})
	if allocs != 0 {
		t.Fatalf("Alloc+ReadInto allocs/op = %v, want 0", allocs)
	}
	for i, pg := range m.pages {
		if pg != nil {
			t.Fatalf("page %d was created by a zero fill or a read", i)
		}
	}
}

// TestLastByteBoundary checks the range check at the final byte of a
// size that does not end on a page boundary: the last byte is
// addressable by every accessor, one past it panics.
func TestLastByteBoundary(t *testing.T) {
	const size = 2*pageSize + 3
	m := New(size)
	last := Addr(size - 1)
	m.PutU8(last, 0x5a)
	m.Write(last, []byte{0xa5})
	m.Fill(last, 1, 0x11)
	if m.U8(last) != 0x11 || m.Read(last, 1)[0] != 0x11 {
		t.Fatal("last byte not addressable")
	}
	m.PutU16(last-1, 0xbeef)
	m.PutU32(last-3, 0xdeadbeef)
	m.PutU64(last-7, 1)
	_ = m.Read(size, 0) // an empty access at the end is in range
	cases := map[string]func(){
		"Read":     func() { m.Read(last, 2) },
		"ReadInto": func() { m.ReadInto(last, make([]byte, 2)) },
		"Write":    func() { m.Write(size, []byte{1}) },
		"Fill":     func() { m.Fill(last, 2, 0) },
		"U8":       func() { m.U8(size) },
		"PutU8":    func() { m.PutU8(size, 0) },
		"U16":      func() { m.U16(last) },
		"PutU16":   func() { m.PutU16(last, 0) },
		"U32":      func() { m.U32(last - 2) },
		"PutU32":   func() { m.PutU32(last-2, 0) },
		"U64":      func() { m.U64(last - 6) },
		"PutU64":   func() { m.PutU64(last-6, 0) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s one past the last byte: expected panic", name)
				} else if s, _ := r.(string); !strings.Contains(s, "out of range") {
					t.Errorf("%s: panic %v, want an out-of-range panic", name, r)
				}
			}()
			fn()
		}()
	}
}
