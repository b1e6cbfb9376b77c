package pcie

import (
	"testing"

	"fpgavirtio/internal/sim"
)

// TestSerTimeTable checks that serTime equals the serialization
// formula sim.NsF(WireBytes(n)/BytesPerNs) for every payload from 0
// to twice MPS — the table up to MPS, the formula beyond — on the
// testbed's Gen2x2 link and on Gen3x4, whose rate is not a power of
// two.
func TestSerTimeTable(t *testing.T) {
	for _, cfg := range []LinkConfig{DefaultGen2x2(), Gen3x4()} {
		l := NewLink(sim.New(), cfg)
		for n := 0; n <= 2*cfg.MPS; n++ {
			want := sim.NsF(float64(WireBytes(n)) / cfg.BytesPerNs())
			if got := l.serTime(n); got != want {
				t.Fatalf("%v: serTime(%d) = %v, formula %v", cfg, n, got, want)
			}
		}
	}
}

var linkTimingSink sim.Time

// BenchmarkLinkTiming prices TLPs on the testbed link with timing: a
// read request, a doorbell, the payload-carrying sizes up to MPS, and
// one beyond it.
func BenchmarkLinkTiming(b *testing.B) {
	l := NewLink(sim.New(), DefaultGen2x2())
	payloads := []int{0, 4, 16, 64, 100, 128, 256}
	for i := 0; i < b.N; i++ {
		_, arrive := l.timing(&l.down, payloads[i%len(payloads)])
		linkTimingSink += arrive
	}
}
