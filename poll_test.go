package fpgavirtio_test

import (
	"bytes"
	"sort"
	"testing"
	"time"

	fpgavirtio "fpgavirtio"
	"fpgavirtio/internal/telemetry"
)

// Poll-mode datapath tests: both stacks must work end to end with no
// MSI-X interrupts at all, account their spinning in the poll.*
// metrics, and beat their interrupt-mode twins on latency once the
// wake-up costs are off the critical path.

func TestNetPollModePing(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config: fpgavirtio.Config{Seed: 21, PollMode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xcd}, 256)
	for i := 0; i < 20; i++ {
		echo, rtt, err := ns.Ping(payload)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !bytes.Equal(echo, payload) {
			t.Fatalf("iteration %d: echo mismatch", i)
		}
		if rtt < 5*time.Microsecond || rtt > 500*time.Microsecond {
			t.Fatalf("iteration %d: rtt = %v outside plausible range", i, rtt)
		}
	}
	if n := ns.BusStats().Interrupts; n != 0 {
		t.Errorf("poll-mode session raised %d interrupts, want 0", n)
	}
	reg := ns.Registry()
	if v := reg.Counter(telemetry.MetricPollSpins).Value(); v == 0 {
		t.Error("poll.spins = 0: the datapath never polled")
	}
	if v := reg.Counter(telemetry.MetricPollBurnNs).Value(); v == 0 {
		t.Error("poll.cpu.burn.ns = 0: spin cost not accounted")
	}
}

func TestXDMAPollModeRoundTrip(t *testing.T) {
	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{
		Config: fpgavirtio.Config{Seed: 22, PollMode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x3c}, 512)
	if err := xs.RoundTripSeries(data, 20, func(i int, s fpgavirtio.RTTSample) {
		if s.Total <= 0 || s.Hardware <= 0 || s.Software <= 0 {
			t.Fatalf("round trip %d: breakdown = %+v", i, s)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := xs.BusStats().Interrupts; n != 0 {
		t.Errorf("poll-mode session raised %d interrupts, want 0", n)
	}
	reg := xs.Registry()
	if v := reg.Counter(telemetry.MetricPollSpins).Value(); v == 0 {
		t.Error("poll.spins = 0: the datapath never polled")
	}
}

func TestPollModeRejectsEventIdx(t *testing.T) {
	_, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config:      fpgavirtio.Config{Seed: 23, PollMode: true},
		UseEventIdx: true,
	})
	if err == nil {
		t.Fatal("PollMode + UseEventIdx accepted; poll mode arms no notification thresholds")
	}
}

// medianRTT measures n round trips and returns the median total.
func medianRTT(t *testing.T, n int, one func() time.Duration) time.Duration {
	t.Helper()
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = one()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[n/2]
}

func TestNetPollModeFaster(t *testing.T) {
	measure := func(poll bool) time.Duration {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config: fpgavirtio.Config{Seed: 24, Quiet: true, PollMode: poll},
		})
		if err != nil {
			t.Fatal(err)
		}
		var rtts []time.Duration
		if err := ns.PingSeries(make([]byte, 512), 20, func(i int, s fpgavirtio.RTTSample) {
			rtts = append(rtts, s.Total)
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		return rtts[len(rtts)/2]
	}
	irq := measure(false)
	poll := measure(true)
	// Poll mode trades a burning core for the IRQ-entry, softirq and
	// scheduler-wake segments: with noise off it must win outright.
	if poll >= irq {
		t.Fatalf("poll median %v not below interrupt median %v", poll, irq)
	}
}

func TestXDMAPollModeFaster(t *testing.T) {
	measure := func(poll bool) time.Duration {
		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{
			Config: fpgavirtio.Config{Seed: 25, Quiet: true, PollMode: poll},
		})
		if err != nil {
			t.Fatal(err)
		}
		var rtts []time.Duration
		if err := xs.RoundTripSeries(make([]byte, 512), 20, func(i int, s fpgavirtio.RTTSample) {
			rtts = append(rtts, s.Total)
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		return rtts[len(rtts)/2]
	}
	irq := measure(false)
	poll := measure(true)
	// The XDMA exchange fields two completion interrupts per round trip
	// in interrupt mode; removing both must show up clearly.
	if poll >= irq {
		t.Fatalf("poll median %v not below interrupt median %v", poll, irq)
	}
}

// irqLayerTime sums critical-path time attributed to the irq layer.
func irqLayerTime(paths []fpgavirtio.CapturedPath) (total time.Duration) {
	for _, cp := range paths {
		for _, l := range cp.Path.Layers {
			if l.Layer == telemetry.LayerIRQ {
				total += time.Duration(l.Total.Nanoseconds()) * time.Nanosecond
			}
		}
	}
	return total
}

func TestNetPollCriticalPathHasNoIRQLayer(t *testing.T) {
	open := func(poll bool) *fpgavirtio.NetSession {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config: fpgavirtio.Config{Seed: 26, PollMode: poll},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	payload := make([]byte, 512)
	targets := []int{0, 5, 9}
	irqPaths, err := open(false).CaptureCriticalPaths(payload, targets)
	if err != nil {
		t.Fatal(err)
	}
	pollPaths, err := open(true).CaptureCriticalPaths(payload, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := irqLayerTime(irqPaths); got == 0 {
		t.Error("interrupt-mode critical path shows no irq-layer time; capture is broken")
	}
	if got := irqLayerTime(pollPaths); got != 0 {
		t.Errorf("poll-mode critical path charges %v to the irq layer, want exactly 0", got)
	}
}

func TestXDMAPollCriticalPathHasNoIRQLayer(t *testing.T) {
	open := func(poll bool) *fpgavirtio.XDMASession {
		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{
			Config: fpgavirtio.Config{Seed: 27, PollMode: poll},
		})
		if err != nil {
			t.Fatal(err)
		}
		return xs
	}
	data := make([]byte, 512)
	targets := []int{0, 4}
	irqPaths, err := open(false).CaptureCriticalPaths(data, targets)
	if err != nil {
		t.Fatal(err)
	}
	pollPaths, err := open(true).CaptureCriticalPaths(data, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := irqLayerTime(irqPaths); got == 0 {
		t.Error("interrupt-mode critical path shows no irq-layer time; capture is broken")
	}
	if got := irqLayerTime(pollPaths); got != 0 {
		t.Errorf("poll-mode critical path charges %v to the irq layer, want exactly 0", got)
	}
}

func TestNetPollModeBurstAndStream(t *testing.T) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config: fpgavirtio.Config{Seed: 28, Quiet: true, PollMode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 32, PayloadSize: 200, Window: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("burst elapsed %v", res.Elapsed)
	}
	if res.Interrupts != 0 {
		t.Fatalf("burst took %d interrupts under poll mode", res.Interrupts)
	}
	st, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
		Config: fpgavirtio.Config{Seed: 28, Quiet: true, PollMode: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := st.Stream(fpgavirtio.StreamConfig{Packets: 64, PayloadSize: 256, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sres.PPS <= 0 {
		t.Fatalf("stream PPS = %v", sres.PPS)
	}
	if sres.Interrupts != 0 {
		t.Fatalf("stream took %d interrupts under poll mode", sres.Interrupts)
	}
}
