package experiments

import (
	"strings"
	"testing"

	"fpgavirtio/internal/sim"
)

// testParams keeps runs fast while leaving enough samples for stable
// percentiles at the tested levels.
func testParams() Params {
	return Params{Seed: 7, Packets: 400, Payloads: []int{64, 256, 1024}}
}

// sweepOnce caches the sweep across shape tests (it is deterministic).
var cachedSweep *Sweep

func getSweep(t *testing.T) *Sweep {
	t.Helper()
	if cachedSweep == nil {
		sw, err := RunSweep(testParams())
		if err != nil {
			t.Fatal(err)
		}
		cachedSweep = sw
	}
	return cachedSweep
}

// TestShapeVirtIONeverSlower asserts the paper's headline: replacing
// the vendor driver with VirtIO in no case reduces performance.
func TestShapeVirtIONeverSlower(t *testing.T) {
	sw := getSweep(t)
	for i := range sw.VirtIO {
		v, x := sw.VirtIO[i], sw.XDMA[i]
		if v.Total.Mean() > x.Total.Mean() {
			t.Errorf("payload %d: VirtIO mean %v > XDMA mean %v", v.Payload, v.Total.Mean(), x.Total.Mean())
		}
	}
}

// TestShapeVirtIOLowerVariance asserts the reduced-variance claim.
func TestShapeVirtIOLowerVariance(t *testing.T) {
	sw := getSweep(t)
	for i := range sw.VirtIO {
		v, x := sw.VirtIO[i], sw.XDMA[i]
		if v.Total.Std() >= x.Total.Std() {
			t.Errorf("payload %d: VirtIO std %v >= XDMA std %v", v.Payload, v.Total.Std(), x.Total.Std())
		}
	}
}

// TestShapeTailLatencies asserts Table I's structure: VirtIO wins at
// 95% and 99%, while 99.9% shows no significant difference.
func TestShapeTailLatencies(t *testing.T) {
	tbl := RunTable1(getSweep(t))
	for _, r := range tbl.Rows {
		if r.V95 >= r.X95 {
			t.Errorf("payload %d: p95 VirtIO %v >= XDMA %v", r.Payload, r.V95, r.X95)
		}
		if r.V99 >= r.X99 {
			t.Errorf("payload %d: p99 VirtIO %v >= XDMA %v", r.Payload, r.V99, r.X99)
		}
		ratio := float64(r.V999) / float64(r.X999)
		if ratio < 0.55 || ratio > 1.5 {
			t.Errorf("payload %d: p99.9 differs significantly: VirtIO %v vs XDMA %v", r.Payload, r.V999, r.X999)
		}
	}
}

// TestShapeBreakdowns asserts Figures 4 and 5: hardware dominates the
// VirtIO decomposition, software dominates the XDMA one, and the
// VirtIO software share is nearly constant across payloads.
func TestShapeBreakdowns(t *testing.T) {
	sw := getSweep(t)
	fig4 := RunFig4(sw)
	fig5 := RunFig5(sw)
	var swMin, swMax sim.Duration
	for i, r := range fig4.Rows {
		if r.HWMean <= r.SWMean {
			t.Errorf("VirtIO payload %d: hw %v <= sw %v", r.Payload, r.HWMean, r.SWMean)
		}
		if i == 0 || r.SWMean < swMin {
			swMin = r.SWMean
		}
		if r.SWMean > swMax {
			swMax = r.SWMean
		}
	}
	if float64(swMax)/float64(swMin) > 1.25 {
		t.Errorf("VirtIO software share not flat: %v..%v", swMin, swMax)
	}
	for _, r := range fig5.Rows {
		if r.SWMean <= r.HWMean {
			t.Errorf("XDMA payload %d: sw %v <= hw %v", r.Payload, r.SWMean, r.HWMean)
		}
	}
}

// TestShapeHardwareGrowsWithPayload asserts both engines' hardware
// time increases with transfer size.
func TestShapeHardwareGrowsWithPayload(t *testing.T) {
	sw := getSweep(t)
	for _, pts := range [][]*PointResult{sw.VirtIO, sw.XDMA} {
		for i := 1; i < len(pts); i++ {
			if pts[i].HW.Mean() <= pts[i-1].HW.Mean() {
				t.Errorf("%s: hw mean not increasing: %v (%dB) -> %v (%dB)",
					pts[i].Driver, pts[i-1].HW.Mean(), pts[i-1].Payload, pts[i].HW.Mean(), pts[i].Payload)
			}
		}
	}
}

// TestShapeHardwareVarianceMinimal asserts the Fig. 4 observation that
// the hardware share has minimal variance relative to software.
func TestShapeHardwareVarianceMinimal(t *testing.T) {
	sw := getSweep(t)
	for _, pt := range sw.VirtIO {
		if pt.HW.Std() > pt.SW.Std()/4 {
			t.Errorf("payload %d: hw std %v not minimal vs sw std %v", pt.Payload, pt.HW.Std(), pt.SW.Std())
		}
	}
}

func TestRendersContainExpectedStructure(t *testing.T) {
	sw := getSweep(t)
	all := sw.Render()
	for _, want := range []string{
		"Fig. 3", "Fig. 4", "Fig. 5", "Table I",
		"virtio/64/total", "xdma/1024/total",
		"95% VirtIO", "99.9% XDMA",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("Sweep.Render missing %q", want)
		}
	}
	rows := RunTable1(sw).Rows
	if len(rows) != len(testParams().Payloads) {
		t.Fatalf("table rows = %d", len(rows))
	}
}

func TestDeterministicSweep(t *testing.T) {
	p := Params{Seed: 9, Packets: 50, Payloads: []int{128}}
	a, err := MeasureVirtIO(p, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureVirtIO(p, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Total.Samples(), b.Total.Samples()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, sa[i], sb[i])
		}
	}
	c, err := MeasureVirtIO(Params{Seed: 10, Packets: 50, Payloads: []int{128}}, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i, s := range c.Total.Samples() {
		if s == sa[i] {
			same++
		}
	}
	if same == len(sa) {
		t.Fatal("different seeds produced identical latency vectors")
	}
}

func TestOffloadAblation(t *testing.T) {
	r, err := RunOffload(Params{Seed: 3, Packets: 250}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r.WithOffload.Mean >= r.WithoutOffload.Mean {
		t.Errorf("offloaded mean %v >= software-csum mean %v", r.WithOffload.Mean, r.WithoutOffload.Mean)
	}
	if r.SWMeanWith >= r.SWMeanWithout {
		t.Errorf("offloaded sw %v >= software-csum sw %v", r.SWMeanWith, r.SWMeanWithout)
	}
	if !strings.Contains(r.Render(), "CSUM offloaded") {
		t.Error("render missing row")
	}
}

func TestIRQAblationShape(t *testing.T) {
	r, err := RunIRQAblation(Params{Seed: 4, Packets: 250}, 256)
	if err != nil {
		t.Fatal(err)
	}
	// The realistic XDMA setup pays an extra interrupt + wake per round
	// trip, so it must be slower than the paper's favourable setup.
	if r.XDMAWithC2HWait.Mean <= r.XDMABackToBack.Mean {
		t.Errorf("realistic XDMA %v <= favourable %v", r.XDMAWithC2HWait.Mean, r.XDMABackToBack.Mean)
	}
	// Per-packet TX interrupts roughly double the device's interrupt
	// traffic (the latency impact is contention, which the model does
	// not price; the bus cost is what we assert).
	ratio := float64(r.IRQsPerPacketTx) / float64(r.IRQsSuppressedTx)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("TX-IRQ arm interrupt ratio = %.2f, want ~2", ratio)
	}
	if float64(r.VirtIOTxIRQs.Mean) < float64(r.VirtIOSuppressedTx.Mean)*0.95 {
		t.Errorf("TX-IRQ VirtIO %v unexpectedly faster than suppressed %v", r.VirtIOTxIRQs.Mean, r.VirtIOSuppressedTx.Mean)
	}
	if !strings.Contains(r.Render(), "realistic") {
		t.Error("render missing arm")
	}
}

func TestBypassFasterThanDriverPath(t *testing.T) {
	r, err := RunBypass(Params{Seed: 5, Packets: 200, Payloads: []int{256, 1024}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.BypassMean >= row.DriverMean {
			t.Errorf("%d B: bypass %v >= driver %v", row.Bytes, row.BypassMean, row.DriverMean)
		}
	}
}

func TestPortabilityGrid(t *testing.T) {
	r, err := RunPortability(Params{Seed: 6, Packets: 500})
	if err != nil {
		t.Fatal(err)
	}
	if r.NetGen3Mean >= r.NetGen2Mean {
		t.Errorf("Gen3 %v >= Gen2 %v", r.NetGen3Mean, r.NetGen2Mean)
	}
	for name, d := range map[string]sim.Duration{
		"console": r.ConsoleMean, "blk read": r.BlkReadMean, "blk write": r.BlkWriteMean,
	} {
		if d <= 0 || d > sim.Ms(1) {
			t.Errorf("%s mean %v implausible", name, d)
		}
	}
}

func TestEventIdxExperiment(t *testing.T) {
	r, err := RunEventIdx(Params{Seed: 8, Packets: 640}, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r.EvIdxDoorbells >= r.FlagsDoorbells {
		t.Errorf("EVENT_IDX doorbells %d >= flags %d", r.EvIdxDoorbells, r.FlagsDoorbells)
	}
	if r.EvIdxIRQs > r.FlagsIRQs {
		t.Errorf("EVENT_IDX irqs %d > flags %d", r.EvIdxIRQs, r.FlagsIRQs)
	}
	if !strings.Contains(r.Render(), "EVENT_IDX") {
		t.Error("render missing mode")
	}
}

func TestOSProfiles(t *testing.T) {
	r, err := RunOSProfiles(Params{Seed: 11, Packets: 400}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byProfile := map[string]OSProfileRow{}
	for _, row := range r.Rows {
		byProfile[row.Profile.String()] = row
		// VirtIO stays ahead of XDMA on every OS.
		if row.VirtIO.Mean >= row.XDMA.Mean {
			t.Errorf("%s: VirtIO mean %v >= XDMA %v", row.Profile, row.VirtIO.Mean, row.XDMA.Mean)
		}
	}
	// PREEMPT_RT slashes the 99.9% tail relative to the desktop.
	rt, desk := byProfile["preempt-rt"], byProfile["desktop"]
	if rt.VirtIO.P999 >= desk.VirtIO.P999 {
		t.Errorf("RT p99.9 %v >= desktop %v", rt.VirtIO.P999, desk.VirtIO.P999)
	}
	if !strings.Contains(r.Render(), "preempt-rt") {
		t.Error("render missing profile")
	}
}

func TestThroughputPipeliningWins(t *testing.T) {
	r, err := RunThroughput(Params{Seed: 12, Packets: 2048, Payloads: []int{64, 1024}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.VirtIOPktsPerS <= row.XDMAPktsPerS {
			t.Errorf("%d B: VirtIO %.0f pkt/s not above XDMA %.0f", row.Payload, row.VirtIOPktsPerS, row.XDMAPktsPerS)
		}
	}
	// Pipelining helps more at small payloads (fixed costs dominate).
	if len(r.Rows) == 2 {
		s0 := r.Rows[0].VirtIOPktsPerS / r.Rows[0].XDMAPktsPerS
		s1 := r.Rows[1].VirtIOPktsPerS / r.Rows[1].XDMAPktsPerS
		if s0 <= s1 {
			t.Errorf("speedup at 64B (%.2f) not above 1024B (%.2f)", s0, s1)
		}
	}
}

func TestRingFormatPackedFaster(t *testing.T) {
	r, err := RunRingFormat(Params{Seed: 13, Packets: 300}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.PackedHW >= r.SplitHW {
		t.Errorf("packed hw %v not below split hw %v", r.PackedHW, r.SplitHW)
	}
	if r.Packed.Mean >= r.Split.Mean {
		t.Errorf("packed total %v not below split %v", r.Packed.Mean, r.Split.Mean)
	}
	if !strings.Contains(r.Render(), "packed") {
		t.Error("render missing row")
	}
}
