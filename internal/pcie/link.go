package pcie

import (
	"fmt"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// LinkConfig describes a PCIe link's generation and width plus the
// transaction-layer limits negotiated during training.
type LinkConfig struct {
	Gen   int // 1..4
	Lanes int // 1, 2, 4, 8, 16

	// MPS is Max_Payload_Size for MWr/CplD TLPs; MRRS is the maximum
	// read-request size. Defaults (128/512) match the XDMA defaults on
	// the paper's Artix-7 board.
	MPS  int
	MRRS int

	// Prop is the one-way flight+PHY/pipeline latency of a TLP.
	Prop sim.Duration
}

// DefaultGen2x2 is the paper testbed's link: Alinx AX7A200, two Gen2 lanes.
func DefaultGen2x2() LinkConfig {
	return LinkConfig{Gen: 2, Lanes: 2, MPS: 128, MRRS: 512, Prop: sim.Ns(200)}
}

// Gen3x4 is an alternative link used by the portability study.
func Gen3x4() LinkConfig {
	return LinkConfig{Gen: 3, Lanes: 4, MPS: 256, MRRS: 512, Prop: sim.Ns(170)}
}

// laneGBps returns the effective per-lane payload rate in bytes/ns,
// after encoding overhead (8b/10b for Gen1/2, 128b/130b afterwards).
func (c LinkConfig) laneBytesPerNs() float64 {
	switch c.Gen {
	case 1:
		return 2.5 / 10 // 2.5 GT/s, 8b/10b
	case 2:
		return 5.0 / 10
	case 3:
		return 8.0 * 128 / 130 / 8
	case 4:
		return 16.0 * 128 / 130 / 8
	default:
		panic(fmt.Sprintf("pcie: unsupported gen %d", c.Gen))
	}
}

func (c LinkConfig) validate() {
	switch c.Lanes {
	case 1, 2, 4, 8, 16:
	default:
		panic(fmt.Sprintf("pcie: unsupported lane count %d", c.Lanes))
	}
	if c.MPS <= 0 || c.MRRS <= 0 {
		panic("pcie: MPS/MRRS must be positive")
	}
	if c.Prop < 0 {
		panic("pcie: negative propagation delay")
	}
}

// BytesPerNs reports the link's aggregate effective byte rate.
func (c LinkConfig) BytesPerNs() float64 {
	return c.laneBytesPerNs() * float64(c.Lanes)
}

// String describes the link, e.g. "Gen2 x2 (1.00 B/ns)".
func (c LinkConfig) String() string {
	return fmt.Sprintf("Gen%d x%d (%.2f B/ns)", c.Gen, c.Lanes, c.BytesPerNs())
}

// direction is one simplex half of the link. TLPs serialize in FIFO
// order; busyUntil tracks when the wire frees up. idx selects the
// direction's span kind in a WireLabel.
type direction struct {
	name      string
	idx       int
	busyUntil sim.Time
}

// WireLabel is a TLP label ("MWr", "CplD", "MSIX:0", ...) prepared for
// one link: its wire span kind and its arrival event name in each
// direction, built once so that transmitting a TLP composes nothing.
// Build labels with Link.Label when a component is constructed, not
// per TLP.
type WireLabel struct {
	kind  [2]sim.SpanKind // indexed by direction.idx
	event [2]string       // "pcie:<dir>:<label>", indexed by direction.idx
}

// Link is a point-to-point PCIe link between the root complex and one
// endpoint. It prices every TLP as serialization (occupancy of the
// sending half) plus fixed propagation.
type Link struct {
	sim  *sim.Sim
	cfg  LinkConfig
	down direction // RC -> EP
	up   direction // EP -> RC

	// Labels of the TLPs the root complex and the endpoint exchange.
	mrd, mwr, cpld, cpl, cfgRd, cfgWr *WireLabel

	// bytesPerNs is cfg.BytesPerNs(); ser[n] is the serialization time
	// of a TLP with an n-byte payload, for n up to MPS (see serTime).
	bytesPerNs float64
	ser        []sim.Duration
}

// NewLink returns a link driven by s with configuration cfg.
func NewLink(s *sim.Sim, cfg LinkConfig) *Link {
	cfg.validate()
	l := &Link{
		sim:  s,
		cfg:  cfg,
		down: direction{name: "down"},
		up:   direction{name: "up", idx: 1},
	}
	l.mrd = l.Label(TLPMemRead.String())
	l.mwr = l.Label(TLPMemWrite.String())
	l.cpld = l.Label(TLPCompletion.String())
	l.cpl = l.Label("Cpl")
	l.cfgRd = l.Label(TLPConfigRead.String())
	l.cfgWr = l.Label(TLPConfigWrite.String())
	l.bytesPerNs = cfg.BytesPerNs()
	l.ser = make([]sim.Duration, cfg.MPS+1)
	for n := range l.ser {
		l.ser[n] = l.serFormula(n)
	}
	return l
}

// Label registers the wire span kinds of TLP label what, one per
// direction, names its arrival events, and returns them.
func (l *Link) Label(what string) *WireLabel {
	lb := &WireLabel{}
	for _, d := range [...]*direction{&l.down, &l.up} {
		lb.kind[d.idx] = l.sim.SpanKind(telemetry.LayerWire, d.name, what)
		lb.event[d.idx] = "pcie:" + d.name + ":" + what
	}
	return lb
}

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// serTime is the wire occupancy of a TLP with the given payload size:
// a table read for payloads up to MPS (every data TLP the link
// carries), the formula itself beyond.
func (l *Link) serTime(payload int) sim.Duration {
	if uint(payload) < uint(len(l.ser)) {
		return l.ser[payload]
	}
	return l.serFormula(payload)
}

// serFormula prices payload bytes at the link's byte rate.
func (l *Link) serFormula(payload int) sim.Duration {
	return sim.NsF(float64(WireBytes(payload)) / l.bytesPerNs)
}

// timing reports when a TLP with the given payload, queued on dir
// now, would finish serializing (sender-side release) and arrive. It
// changes nothing, so a caller can price a TLP before queueing it.
func (l *Link) timing(dir *direction, payload int) (serEnd, arrive sim.Time) {
	start := l.sim.Now()
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	serEnd = start.Add(l.serTime(payload))
	return serEnd, serEnd.Add(l.cfg.Prop)
}

// transmit queues one TLP on dir. It returns the time serialization
// finishes and schedules deliver at arrival. The TLP's wire span
// (queue + serialization + flight) is known here, so it is logged as
// a closed interval; the arrival event carries deliver directly, so a
// TLP costs zero heap allocations whoever is watching.
func (l *Link) transmit(dir *direction, payload int, lb *WireLabel, deliver func()) sim.Time {
	serEnd, arrive := l.timing(dir, payload)
	dir.busyUntil = serEnd
	l.sim.SpanClosed(lb.kind[dir.idx], l.sim.Now(), arrive)
	l.sim.At(arrive, lb.event[dir.idx], deliver)
	return serEnd
}

// Down sends a TLP labelled lb from root complex to endpoint.
func (l *Link) Down(payload int, lb *WireLabel, deliver func()) sim.Time {
	return l.transmit(&l.down, payload, lb, deliver)
}

// Up sends a TLP labelled lb from endpoint to root complex.
func (l *Link) Up(payload int, lb *WireLabel, deliver func()) sim.Time {
	return l.transmit(&l.up, payload, lb, deliver)
}
