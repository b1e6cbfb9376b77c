package experiments

import (
	"fmt"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/perf"
	"fpgavirtio/internal/sim"
)

// ---- E5: checksum-offload ablation ---------------------------------------

// OffloadResult compares VirtIO with and without NET_F_CSUM/GUEST_CSUM.
type OffloadResult struct {
	Payload        int
	WithOffload    perf.Summary
	WithoutOffload perf.Summary
	SWMeanWith     sim.Duration
	SWMeanWithout  sim.Duration
}

// RunOffload measures the checksum-offload ablation at one payload.
func RunOffload(p Params, payload int) (*OffloadResult, error) {
	p = p.withDefaults()
	on, err := MeasureVirtIO(p, payload, nil)
	if err != nil {
		return nil, err
	}
	off, err := MeasureVirtIO(p, payload, func(c *fpgavirtio.NetConfig) { c.DisableCsumOffload = true })
	if err != nil {
		return nil, err
	}
	return &OffloadResult{
		Payload:        payload,
		WithOffload:    on.Total.Summarize(),
		WithoutOffload: off.Total.Summarize(),
		SWMeanWith:     on.SW.Mean(),
		SWMeanWithout:  off.SW.Mean(),
	}, nil
}

// Render prints the ablation comparison.
func (r *OffloadResult) Render() string {
	t := perf.Table{
		Title:   fmt.Sprintf("E5 — Checksum offload ablation, %d B UDP payload (us)", r.Payload),
		Headers: []string{"config", "total mean", "total p95", "sw mean"},
	}
	t.AddRow("CSUM offloaded", perf.Us(r.WithOffload.Mean), perf.Us(r.WithOffload.P95), perf.Us(r.SWMeanWith))
	t.AddRow("software csum", perf.Us(r.WithoutOffload.Mean), perf.Us(r.WithoutOffload.P95), perf.Us(r.SWMeanWithout))
	return t.String()
}

// ---- E6: notification/interrupt ablation ----------------------------------

// IRQAblation compares signalling strategies: the paper's favourable
// XDMA setup vs the realistic data-ready-interrupt one, and VirtIO with
// suppressed vs per-packet TX interrupts.
type IRQAblation struct {
	Payload            int
	Packets            int
	XDMABackToBack     perf.Summary
	XDMAWithC2HWait    perf.Summary
	VirtIOSuppressedTx perf.Summary
	VirtIOTxIRQs       perf.Summary
	// Interrupt totals over the run for the VirtIO arms: suppressing TX
	// completions halves the device's interrupt traffic.
	IRQsSuppressedTx int
	IRQsPerPacketTx  int
}

// RunIRQAblation measures all four arms at one payload.
func RunIRQAblation(p Params, payload int) (*IRQAblation, error) {
	p = p.withDefaults()
	xFav, err := MeasureXDMA(p, payload, nil)
	if err != nil {
		return nil, err
	}
	xReal, err := MeasureXDMA(p, payload, func(c *fpgavirtio.XDMAConfig) { c.WaitC2HReady = true })
	if err != nil {
		return nil, err
	}
	vSupp, err := MeasureVirtIO(p, payload, nil)
	if err != nil {
		return nil, err
	}
	vIRQ, err := MeasureVirtIO(p, payload, func(c *fpgavirtio.NetConfig) { c.TxInterrupts = true })
	if err != nil {
		return nil, err
	}
	return &IRQAblation{
		Payload:            payload,
		Packets:            p.Packets,
		XDMABackToBack:     xFav.Total.Summarize(),
		XDMAWithC2HWait:    xReal.Total.Summarize(),
		VirtIOSuppressedTx: vSupp.Total.Summarize(),
		VirtIOTxIRQs:       vIRQ.Total.Summarize(),
		IRQsSuppressedTx:   vSupp.Interrupts,
		IRQsPerPacketTx:    vIRQ.Interrupts,
	}, nil
}

// Render prints the four arms.
func (r *IRQAblation) Render() string {
	t := perf.Table{
		Title:   fmt.Sprintf("E6 — Interrupt/notification ablation, %d B payload (us)", r.Payload),
		Headers: []string{"config", "mean", "p95", "p99"},
	}
	t.Headers = append(t.Headers, "irqs/pkt")
	add := func(name string, s perf.Summary, irqs string) {
		t.AddRow(name, perf.Us(s.Mean), perf.Us(s.P95), perf.Us(s.P99), irqs)
	}
	perPkt := func(n int) string { return fmt.Sprintf("%.2f", float64(n)/float64(r.Packets)) }
	add("XDMA back-to-back (paper setup)", r.XDMABackToBack, "2.00")
	add("XDMA + C2H data-ready IRQ (realistic)", r.XDMAWithC2HWait, "3.00")
	add("VirtIO, TX IRQs suppressed (default)", r.VirtIOSuppressedTx, perPkt(r.IRQsSuppressedTx))
	add("VirtIO, per-packet TX IRQs", r.VirtIOTxIRQs, perPkt(r.IRQsPerPacketTx))
	return t.String()
}

// ---- E7: host-bypass interface ---------------------------------------------

// BypassResult compares user-logic-initiated transfers against the
// driver path (paper §III-A's additional interface).
type BypassResult struct {
	Rows []BypassRow
}

// BypassRow is one transfer size's comparison.
type BypassRow struct {
	Bytes      int
	BypassMean sim.Duration
	DriverMean sim.Duration
}

// RunBypass measures bypass copies vs driver round trips across sizes.
func RunBypass(p Params) (*BypassResult, error) {
	p = p.withDefaults()
	iters := p.Packets / 10
	if iters < 10 {
		iters = 10
	}
	if iters > 2000 {
		iters = 2000
	}
	res := &BypassResult{}
	for _, n := range p.Payloads {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link}})
		if err != nil {
			return nil, err
		}
		by := perf.NewSeries("bypass")
		dr := perf.NewSeries("driver")
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			d, err := ns.BypassCopy(n)
			if err != nil {
				return nil, err
			}
			by.Add(toSim(d))
			s, err := ns.PingDetailed(buf)
			if err != nil {
				return nil, err
			}
			dr.Add(toSim(s.Total))
		}
		res.Rows = append(res.Rows, BypassRow{Bytes: n, BypassMean: by.Mean(), DriverMean: dr.Mean()})
	}
	return res, nil
}

// Render prints the comparison.
func (r *BypassResult) Render() string {
	t := perf.Table{
		Title:   "E7 — Host-bypass interface vs driver path (us, mean)",
		Headers: []string{"bytes", "bypass copy", "driver echo RTT", "ratio"},
	}
	for _, row := range r.Rows {
		ratio := float64(row.DriverMean) / float64(row.BypassMean)
		t.AddRow(fmt.Sprint(row.Bytes), perf.Us(row.BypassMean), perf.Us(row.DriverMean),
			fmt.Sprintf("%.1fx", ratio))
	}
	return t.String()
}

// ---- E8: device-type and link portability ----------------------------------

// PortabilityResult exercises the same controller under different
// device personalities and link generations.
type PortabilityResult struct {
	NetGen2Mean  sim.Duration
	NetGen3Mean  sim.Duration
	ConsoleMean  sim.Duration
	BlkReadMean  sim.Duration
	BlkWriteMean sim.Duration
	Iterations   int
}

// RunPortability measures the portability grid.
func RunPortability(p Params) (*PortabilityResult, error) {
	p = p.withDefaults()
	iters := p.Packets / 25
	if iters < 10 {
		iters = 10
	}
	if iters > 2000 {
		iters = 2000
	}
	res := &PortabilityResult{Iterations: iters}

	measureNet := func(link fpgavirtio.Link) (sim.Duration, error) {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: link}})
		if err != nil {
			return 0, err
		}
		s := perf.NewSeries("net")
		buf := make([]byte, 256)
		for i := 0; i < iters; i++ {
			r, err := ns.PingDetailed(buf)
			if err != nil {
				return 0, err
			}
			s.Add(toSim(r.Total))
		}
		return s.Mean(), nil
	}
	var err error
	if res.NetGen2Mean, err = measureNet(fpgavirtio.Gen2x2); err != nil {
		return nil, err
	}
	if res.NetGen3Mean, err = measureNet(fpgavirtio.Gen3x4); err != nil {
		return nil, err
	}

	cs, err := fpgavirtio.OpenConsole(fpgavirtio.Config{Seed: p.Seed, Link: p.Link})
	if err != nil {
		return nil, err
	}
	con := perf.NewSeries("console")
	msg := make([]byte, 256)
	for i := 0; i < iters; i++ {
		_, rtt, err := cs.WriteRead(msg)
		if err != nil {
			return nil, err
		}
		con.Add(toSim(rtt))
	}
	res.ConsoleMean = con.Mean()

	bs, err := fpgavirtio.OpenBlk(fpgavirtio.BlkConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link}})
	if err != nil {
		return nil, err
	}
	rd := perf.NewSeries("blkrd")
	wr := perf.NewSeries("blkwr")
	sector := make([]byte, 512)
	for i := 0; i < iters; i++ {
		d, err := bs.WriteSector(uint64(i%1024), sector)
		if err != nil {
			return nil, err
		}
		wr.Add(toSim(d))
		_, d, err = bs.ReadSector(uint64(i % 1024))
		if err != nil {
			return nil, err
		}
		rd.Add(toSim(d))
	}
	res.BlkReadMean = rd.Mean()
	res.BlkWriteMean = wr.Mean()
	return res, nil
}

// Render prints the portability grid.
func (r *PortabilityResult) Render() string {
	t := perf.Table{
		Title:   fmt.Sprintf("E8 — Device-type & link portability (us, mean over %d ops)", r.Iterations),
		Headers: []string{"configuration", "mean latency"},
	}
	t.AddRow("net echo, Gen2 x2 (256 B)", perf.Us(r.NetGen2Mean))
	t.AddRow("net echo, Gen3 x4 (256 B)", perf.Us(r.NetGen3Mean))
	t.AddRow("console echo (256 B)", perf.Us(r.ConsoleMean))
	t.AddRow("blk read (512 B sector)", perf.Us(r.BlkReadMean))
	t.AddRow("blk write (512 B sector)", perf.Us(r.BlkWriteMean))
	return t.String()
}

// ---- E9: EVENT_IDX suppression under bursty load ---------------------------

// EventIdxResult compares flag-based and event-index-based notification
// suppression under a send-burst-then-drain workload.
type EventIdxResult struct {
	Burst, Packets                 int
	FlagsDoorbells, EvIdxDoorbells int
	FlagsIRQs, EvIdxIRQs           int
	FlagsElapsed, EvIdxElapsed     sim.Duration
}

// RunEventIdx measures both modes over repeated bursts.
func RunEventIdx(p Params, burst int) (*EventIdxResult, error) {
	p = p.withDefaults()
	rounds := p.Packets / burst
	if rounds < 1 {
		rounds = 1
	}
	if rounds > 200 {
		rounds = 200
	}
	measure := func(eventIdx bool) (db, irqs int, elapsed sim.Duration, err error) {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config:      fpgavirtio.Config{Seed: p.Seed, Link: p.Link},
			UseEventIdx: eventIdx,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < rounds; i++ {
			r, err := ns.Stream(fpgavirtio.StreamConfig{Packets: burst, PayloadSize: 128, Window: burst})
			if err != nil {
				return 0, 0, 0, err
			}
			db += r.Doorbells
			irqs += r.Interrupts
			elapsed += toSim(r.Elapsed)
		}
		return db, irqs, elapsed / sim.Duration(rounds), nil
	}
	res := &EventIdxResult{Burst: burst, Packets: rounds * burst}
	var err error
	if res.FlagsDoorbells, res.FlagsIRQs, res.FlagsElapsed, err = measure(false); err != nil {
		return nil, err
	}
	if res.EvIdxDoorbells, res.EvIdxIRQs, res.EvIdxElapsed, err = measure(true); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the comparison.
func (r *EventIdxResult) Render() string {
	t := perf.Table{
		Title: fmt.Sprintf("E9 — EVENT_IDX vs flags suppression, bursts of %d (over %d pkts)",
			r.Burst, r.Packets),
		Headers: []string{"mode", "doorbells/pkt", "irqs/pkt", "burst time (us)"},
	}
	per := func(n int) string { return fmt.Sprintf("%.2f", float64(n)/float64(r.Packets)) }
	t.AddRow("flags (default)", per(r.FlagsDoorbells), per(r.FlagsIRQs), perf.Us(r.FlagsElapsed))
	t.AddRow("EVENT_IDX", per(r.EvIdxDoorbells), per(r.EvIdxIRQs), perf.Us(r.EvIdxElapsed))
	return t.String()
}

// ---- E10: host OS portability ----------------------------------------------

// OSProfileResult measures both drivers' means and tails under the
// three host profiles — the "different operating systems" axis of the
// paper's conclusion.
type OSProfileResult struct {
	Payload int
	Rows    []OSProfileRow
}

// OSProfileRow is one profile's comparison.
type OSProfileRow struct {
	Profile      fpgavirtio.HostProfile
	VirtIO, XDMA perf.Summary
}

// RunOSProfiles measures the grid at one payload.
func RunOSProfiles(p Params, payload int) (*OSProfileResult, error) {
	p = p.withDefaults()
	res := &OSProfileResult{Payload: payload}
	for _, prof := range []fpgavirtio.HostProfile{fpgavirtio.DesktopHost, fpgavirtio.ServerHost, fpgavirtio.RTHost} {
		prof := prof
		v, err := MeasureVirtIO(p, payload, func(c *fpgavirtio.NetConfig) { c.Host = prof })
		if err != nil {
			return nil, err
		}
		x, err := MeasureXDMA(p, payload, func(c *fpgavirtio.XDMAConfig) { c.Host = prof })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, OSProfileRow{
			Profile: prof,
			VirtIO:  v.Total.Summarize(),
			XDMA:    x.Total.Summarize(),
		})
	}
	return res, nil
}

// Render prints the per-profile comparison.
func (r *OSProfileResult) Render() string {
	t := perf.Table{
		Title: fmt.Sprintf("E10 — Host OS profiles, %d B payload (us)", r.Payload),
		Headers: []string{"host profile",
			"VirtIO mean", "VirtIO p95", "VirtIO p99.9",
			"XDMA mean", "XDMA p95", "XDMA p99.9"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Profile.String(),
			perf.Us(row.VirtIO.Mean), perf.Us(row.VirtIO.P95), perf.Us(row.VirtIO.P999),
			perf.Us(row.XDMA.Mean), perf.Us(row.XDMA.P95), perf.Us(row.XDMA.P999))
	}
	return t.String()
}

// ---- E11: pipelined throughput ----------------------------------------------

// ThroughputResult compares sustained round-trip throughput: the VirtIO
// rings pipeline many packets in flight, while the character-device
// semantics serialize one transfer at a time — a dimension the paper's
// ping-pong latency tests cannot show.
type ThroughputResult struct {
	Rows []ThroughputRow
}

// ThroughputRow is one payload's comparison. Rates are packets per
// second of simulated time (each packet crosses the link twice).
type ThroughputRow struct {
	Payload        int
	VirtIOPktsPerS float64
	XDMAPktsPerS   float64
}

// RunThroughput measures both paths under sustained load.
func RunThroughput(p Params) (*ThroughputResult, error) {
	p = p.withDefaults()
	burst := 64
	rounds := p.Packets / burst / 4
	if rounds < 2 {
		rounds = 2
	}
	if rounds > 100 {
		rounds = 100
	}
	res := &ThroughputResult{}
	for _, payload := range p.Payloads {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link}})
		if err != nil {
			return nil, err
		}
		var vElapsed sim.Duration
		for i := 0; i < rounds; i++ {
			r, err := ns.Stream(fpgavirtio.StreamConfig{Packets: burst, PayloadSize: payload, Window: burst})
			if err != nil {
				return nil, err
			}
			vElapsed += toSim(r.Elapsed)
		}
		vRate := float64(rounds*burst) / (float64(vElapsed) / float64(sim.Second))

		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: p.Seed, Link: p.Link}})
		if err != nil {
			return nil, err
		}
		var xElapsed sim.Duration
		buf := make([]byte, payload+HeaderOverhead)
		n := rounds * burst / 4 // XDMA round trips are serial; sample fewer
		if n < 16 {
			n = 16
		}
		for i := 0; i < n; i++ {
			d, err := xs.RoundTrip(buf)
			if err != nil {
				return nil, err
			}
			xElapsed += toSim(d)
		}
		xRate := float64(n) / (float64(xElapsed) / float64(sim.Second))
		res.Rows = append(res.Rows, ThroughputRow{Payload: payload, VirtIOPktsPerS: vRate, XDMAPktsPerS: xRate})
	}
	return res, nil
}

// Render prints the throughput comparison.
func (r *ThroughputResult) Render() string {
	t := perf.Table{
		Title:   "E11 — Sustained round-trip throughput (kilo-packets/s)",
		Headers: []string{"payload", "VirtIO (pipelined)", "XDMA (serial)", "speedup"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprint(row.Payload),
			fmt.Sprintf("%.1f", row.VirtIOPktsPerS/1000),
			fmt.Sprintf("%.1f", row.XDMAPktsPerS/1000),
			fmt.Sprintf("%.1fx", row.VirtIOPktsPerS/row.XDMAPktsPerS))
	}
	return t.String()
}

// ---- E12: split vs packed virtqueue format ----------------------------------

// RingFormatResult compares the split and packed virtqueue formats on
// the same device — a future-work direction for the paper's controller:
// the packed format's in-band availability bits cut the device's
// per-chain bus reads, directly shrinking the hardware share of Fig. 4.
type RingFormatResult struct {
	Payload           int
	Split, Packed     perf.Summary
	SplitHW, PackedHW sim.Duration
}

// RunRingFormat measures both formats at one payload.
func RunRingFormat(p Params, payload int) (*RingFormatResult, error) {
	p = p.withDefaults()
	split, err := MeasureVirtIO(p, payload, nil)
	if err != nil {
		return nil, err
	}
	packed, err := MeasureVirtIO(p, payload, func(c *fpgavirtio.NetConfig) { c.UsePackedRing = true })
	if err != nil {
		return nil, err
	}
	return &RingFormatResult{
		Payload:  payload,
		Split:    split.Total.Summarize(),
		Packed:   packed.Total.Summarize(),
		SplitHW:  split.HW.Mean(),
		PackedHW: packed.HW.Mean(),
	}, nil
}

// Render prints the format comparison.
func (r *RingFormatResult) Render() string {
	t := perf.Table{
		Title:   fmt.Sprintf("E12 — Split vs packed virtqueue, %d B payload (us)", r.Payload),
		Headers: []string{"format", "total mean", "total p95", "hw mean"},
	}
	t.AddRow("split (paper's device)", perf.Us(r.Split.Mean), perf.Us(r.Split.P95), perf.Us(r.SplitHW))
	t.AddRow("packed (VIRTIO_F_RING_PACKED)", perf.Us(r.Packed.Mean), perf.Us(r.Packed.P95), perf.Us(r.PackedHW))
	return t.String()
}
