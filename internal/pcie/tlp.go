// Package pcie models a PCI Express point-to-point interconnect at the
// transaction layer: TLP costs, per-direction serialization, config
// space with a walkable capability chain, BAR routing, bus-mastered
// DMA into host memory, and MSI-X delivery.
//
// The model is deliberately at TLP granularity — the latency gap the
// paper measures between driver stacks comes from how many bus
// transactions of which kind (posted writes, non-posted reads,
// completions) each design issues per operation, and from payload
// serialization at the Gen2 x2 line rate of the Artix-7 testbed.
package pcie

import "fmt"

// TLPKind enumerates the transaction-layer packet types the model prices.
type TLPKind int

// TLP kinds.
const (
	TLPMemRead  TLPKind = iota // MRd: non-posted, expects completion(s)
	TLPMemWrite                // MWr: posted
	TLPCompletion
	TLPConfigRead
	TLPConfigWrite
	TLPMessage // MSI/MSI-X are memory writes, but counted separately

	numTLPKinds // sizes the per-kind counter arrays in Stats
)

// String names the TLP kind.
func (k TLPKind) String() string {
	switch k {
	case TLPMemRead:
		return "MRd"
	case TLPMemWrite:
		return "MWr"
	case TLPCompletion:
		return "CplD"
	case TLPConfigRead:
		return "CfgRd"
	case TLPConfigWrite:
		return "CfgWr"
	case TLPMessage:
		return "Msg"
	default:
		return fmt.Sprintf("TLPKind(%d)", int(k))
	}
}

// TLPOverhead is the per-TLP framing cost on the wire in bytes:
// STP/end framing (2) + sequence number (2) + 3-DW or 4-DW header
// (12–16) + LCRC (4). We use the 64-bit-address 4-DW figure.
const TLPOverhead = 24

// WireBytes reports the on-wire size of a TLP carrying n payload bytes.
func WireBytes(payload int) int { return TLPOverhead + payload }

// Stats counts bus traffic on one endpoint, split by direction. The
// per-kind counts are arrays indexed by TLPKind because every TLP bumps
// one on the hot path.
type Stats struct {
	DownTLPs   [numTLPKinds]int // host -> device
	UpTLPs     [numTLPKinds]int // device -> host
	DownBytes  int64            // payload bytes host -> device
	UpBytes    int64            // payload bytes device -> host
	Interrupts int
}

// NewStats returns zeroed counters.
func NewStats() *Stats { return &Stats{} }

func (s *Stats) countDown(k TLPKind, payload int) {
	s.DownTLPs[k]++
	s.DownBytes += int64(payload)
}

func (s *Stats) countUp(k TLPKind, payload int) {
	s.UpTLPs[k]++
	s.UpBytes += int64(payload)
}
