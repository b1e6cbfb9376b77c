package virtio

import (
	"testing"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

// fuzzDMA reads device-visible memory the way the bus would: accesses
// beyond the end of host memory complete as unsupported requests and
// read back zeros instead of faulting the device.
type fuzzDMA struct{ m *mem.Memory }

func (d fuzzDMA) ReadInto(p *sim.Proc, a mem.Addr, dst []byte) {
	size := uint64(d.m.Size())
	for i := range dst {
		dst[i] = 0
		if off := uint64(a) + uint64(i); off >= uint64(a) && off < size {
			dst[i] = d.m.U8(mem.Addr(off))
		}
	}
}

func (d fuzzDMA) Write(p *sim.Proc, a mem.Addr, data []byte) {
	size := uint64(d.m.Size())
	for i, b := range data {
		if off := uint64(a) + uint64(i); off >= uint64(a) && off < size {
			d.m.Write(mem.Addr(off), []byte{b})
		}
	}
}

const fuzzQueueSize = 8

// fuzzDesc builds one 16-byte descriptor-table entry.
func fuzzDesc(addr uint64, length uint32, flags, next uint16) []byte {
	b := make([]byte, descEntrySize)
	for i := 0; i < 8; i++ {
		b[i] = byte(addr >> (8 * i))
	}
	b[8], b[9], b[10], b[11] = byte(length), byte(length>>8), byte(length>>16), byte(length>>24)
	b[12], b[13] = byte(flags), byte(flags>>8)
	b[14], b[15] = byte(next), byte(next>>8)
	return b
}

// FuzzSplitRingDescriptorChains feeds arbitrary descriptor tables to the
// device-side chain walker. Malformed input — looping chains,
// out-of-range indices, bogus indirect tables — must produce an error;
// it must never hang, panic, or return a chain longer than the queue.
func FuzzSplitRingDescriptorChains(f *testing.F) {
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}

	// Seed corpus: one healthy chain plus the malformations the walker
	// must reject. Run by plain `go test` even without -fuzz.
	f.Add(uint16(0), cat( // valid two-descriptor chain
		fuzzDesc(0x4000, 64, DescFNext, 1),
		fuzzDesc(0x5000, 64, DescFWrite, 0)))
	f.Add(uint16(0), fuzzDesc(0x4000, 64, DescFNext, 0)) // self-loop
	f.Add(uint16(0), cat(                                // two-step loop
		fuzzDesc(0x4000, 64, DescFNext, 1),
		fuzzDesc(0x5000, 64, DescFNext, 0)))
	f.Add(uint16(0), fuzzDesc(0x4000, 64, DescFNext, 200))             // next outside the queue
	f.Add(uint16(200), fuzzDesc(0x4000, 64, 0, 0))                     // head outside the queue
	f.Add(uint16(0), fuzzDesc(0x2000, 32, DescFIndirect, 0))           // indirect, 2-entry table
	f.Add(uint16(0), fuzzDesc(0x2000, 17, DescFIndirect, 0))           // indirect length not a multiple
	f.Add(uint16(0), fuzzDesc(0x2000, 0, DescFIndirect, 0))            // indirect empty table
	f.Add(uint16(0), fuzzDesc(0x2000, 0xFFFFFFF0, DescFIndirect, 0))   // indirect table far beyond the queue
	f.Add(uint16(0), fuzzDesc(0x2000, 32, DescFIndirect|DescFNext, 0)) // indirect with chaining
	f.Add(uint16(0), fuzzDesc(1<<40, 64, 0, 0))                        // buffer beyond host memory
	f.Add(uint16(7), []byte{})                                         // empty table, tail head

	f.Fuzz(func(t *testing.T, head uint16, table []byte) {
		m := mem.New(1 << 16)
		al := mem.NewAllocator(m, 0x1000, 0x8000)
		lay := AllocRing(al, fuzzQueueSize)

		// Lay the fuzzed bytes over the descriptor table (truncated to
		// its size) and over a region an indirect descriptor at 0x2000
		// could point into, so seeds above resolve to fuzzed content too.
		desc := table
		if len(desc) > fuzzQueueSize*descEntrySize {
			desc = desc[:fuzzQueueSize*descEntrySize]
		}
		m.Write(lay.Desc, desc)
		ind := table
		if len(ind) > 0x1000 {
			ind = ind[:0x1000]
		}
		m.Write(0x2000, ind)

		dq := newBlockingSplit(fuzzDMA{m: m}, lay)
		s := sim.New()
		s.Go("device", func(p *sim.Proc) {
			defer s.Stop()
			chain, err := dq.fetchChain(p, m, head)
			if err != nil {
				return
			}
			if len(chain) == 0 {
				t.Errorf("FetchChain(%d) returned an empty chain without error", head)
			}
			if len(chain) > fuzzQueueSize {
				t.Errorf("FetchChain(%d) returned %d descriptors from a queue of %d",
					head, len(chain), fuzzQueueSize)
			}
			// A structurally valid chain must also survive the data
			// paths without faulting. Skip chains whose claimed segment
			// lengths are absurd — the DMA model would faithfully
			// allocate them, which is the bus's problem, not the walker's.
			total := 0
			for _, d := range chain {
				total += int(d.Len)
			}
			if total <= 1<<20 {
				dq.ReadChainInto(p, chain, nil)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("sim error: %v", err)
		}
	})
}
