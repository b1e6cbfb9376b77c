package netstack

import (
	"bytes"
	"testing"
)

// checksumRef is the byte-pair-at-a-time RFC 1071 sum Checksum must
// equal, accumulated in 64 bits so that it cannot wrap on any input a
// fuzzer builds.
func checksumRef(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint64(b[i])<<8 | uint64(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint64(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// FuzzChecksum checks the word-wise Checksum against the byte-wise
// reference: every length mod 8 (odd ones included), zero and nonzero
// initial sums, and all-0x00 and all-0xff buffers, where the two
// representations of zero in ones' complement (0x0000, 0xffff) meet.
func FuzzChecksum(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 20, 63, 1024, 1501} {
		for _, fill := range []byte{0x00, 0xff, 0x5a} {
			for _, initial := range []uint32{0, 1, 0xffff, 0x1fffe, 0xffffffff} {
				f.Add(bytes.Repeat([]byte{fill}, n), initial)
			}
		}
	}
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, initial uint32) {
		if got, want := Checksum(b, initial), checksumRef(b, initial); got != want {
			t.Fatalf("Checksum(%d bytes, %#x) = %#04x, byte-wise reference %#04x", len(b), initial, got, want)
		}
	})
}

var checksumSink uint16

// BenchmarkChecksum sums a 1024 B payload, the net-stream workload's
// size, and a 20 B IPv4 header.
func BenchmarkChecksum(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"ipv4hdr", IPv4HdrSize}, {"1024B", 1024}} {
		buf := bytes.Repeat([]byte{0xa5, 0x3c, 0x0f}, c.n/3+1)[:c.n]
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(buf, 0x1234)
			}
		})
	}
}
