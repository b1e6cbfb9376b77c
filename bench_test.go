package fpgavirtio_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	fpgavirtio "fpgavirtio"
)

// The benchmarks regenerate the paper's evaluation artifacts. Each
// iteration is one simulated round trip; the benchmark's ns/op is the
// host cost of simulating it, while the reported "sim-us/op" (and tail
// metrics) are the simulated latencies the paper's figures plot. Run
// with:
//
//	go test -bench=. -benchmem
//
// For the paper's full 50,000-packet statistics use cmd/fvbench.

var paperPayloads = []int{64, 128, 256, 512, 1024}

func reportSim(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	b.ReportMetric(float64(sum.Nanoseconds())/float64(len(samples))/1000, "sim-us/op")
}

func pctOf(samples []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration{}, samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// BenchmarkFig3RoundTrip regenerates the Figure 3 grid: round-trip
// latency for both drivers across the paper's payload sweep.
func BenchmarkFig3RoundTrip(b *testing.B) {
	for _, payload := range paperPayloads {
		payload := payload
		b.Run(fmt.Sprintf("virtio-%d", payload), func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, payload)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rtt, err := ns.Ping(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			reportSim(b, samples)
		})
		b.Run(fmt.Sprintf("xdma-%d", payload), func(b *testing.B) {
			xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			// Same bytes on the link as the VirtIO test (payload + headers).
			buf := make([]byte, payload+54)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rtt, err := xs.RoundTrip(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			reportSim(b, samples)
		})
	}
}

// BenchmarkFig4VirtIOBreakdown regenerates Figure 4: the VirtIO
// software/hardware decomposition per payload.
func BenchmarkFig4VirtIOBreakdown(b *testing.B) {
	for _, payload := range paperPayloads {
		payload := payload
		b.Run(fmt.Sprintf("payload-%d", payload), func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, payload)
			var sw, hw, total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := ns.PingDetailed(buf)
				if err != nil {
					b.Fatal(err)
				}
				sw += s.Software
				hw += s.Hardware
				total += s.Total
			}
			n := float64(b.N)
			b.ReportMetric(float64(sw.Nanoseconds())/n/1000, "sim-sw-us/op")
			b.ReportMetric(float64(hw.Nanoseconds())/n/1000, "sim-hw-us/op")
			b.ReportMetric(float64(total.Nanoseconds())/n/1000, "sim-us/op")
		})
	}
}

// BenchmarkFig5XDMABreakdown regenerates Figure 5: the vendor-driver
// decomposition per payload.
func BenchmarkFig5XDMABreakdown(b *testing.B) {
	for _, payload := range paperPayloads {
		payload := payload
		b.Run(fmt.Sprintf("payload-%d", payload), func(b *testing.B) {
			xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, payload+54)
			var sw, hw, total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := xs.RoundTripDetailed(buf)
				if err != nil {
					b.Fatal(err)
				}
				sw += s.Software
				hw += s.Hardware
				total += s.Total
			}
			n := float64(b.N)
			b.ReportMetric(float64(sw.Nanoseconds())/n/1000, "sim-sw-us/op")
			b.ReportMetric(float64(hw.Nanoseconds())/n/1000, "sim-hw-us/op")
			b.ReportMetric(float64(total.Nanoseconds())/n/1000, "sim-us/op")
		})
	}
}

// BenchmarkTable1Tails regenerates Table I: tail latencies at 95/99/
// 99.9% for both drivers (the 99.9% metric is only meaningful at high
// -benchtime iteration counts).
func BenchmarkTable1Tails(b *testing.B) {
	for _, payload := range []int{64, 1024} {
		payload := payload
		b.Run(fmt.Sprintf("virtio-%d", payload), func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, payload)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rtt, err := ns.Ping(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			b.ReportMetric(float64(pctOf(samples, 95).Nanoseconds())/1000, "sim-p95-us")
			b.ReportMetric(float64(pctOf(samples, 99).Nanoseconds())/1000, "sim-p99-us")
			b.ReportMetric(float64(pctOf(samples, 99.9).Nanoseconds())/1000, "sim-p999-us")
		})
		b.Run(fmt.Sprintf("xdma-%d", payload), func(b *testing.B) {
			xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, payload+54)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rtt, err := xs.RoundTrip(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			b.ReportMetric(float64(pctOf(samples, 95).Nanoseconds())/1000, "sim-p95-us")
			b.ReportMetric(float64(pctOf(samples, 99).Nanoseconds())/1000, "sim-p99-us")
			b.ReportMetric(float64(pctOf(samples, 99.9).Nanoseconds())/1000, "sim-p999-us")
		})
	}
}

// BenchmarkE5ChecksumOffload regenerates the offload ablation (E5).
func BenchmarkE5ChecksumOffload(b *testing.B) {
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"offloaded", false}, {"software-csum", true}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
				Config:             fpgavirtio.Config{Seed: 2},
				DisableCsumOffload: arm.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1024)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rtt, err := ns.Ping(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			reportSim(b, samples)
		})
	}
}

// BenchmarkE6IRQAblation regenerates the interrupt ablation (E6).
func BenchmarkE6IRQAblation(b *testing.B) {
	b.Run("xdma-favourable", func(b *testing.B) {
		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: 3}})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 256+54)
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rtt, err := xs.RoundTrip(buf)
			if err != nil {
				b.Fatal(err)
			}
			samples = append(samples, rtt)
		}
		reportSim(b, samples)
	})
	b.Run("xdma-realistic", func(b *testing.B) {
		xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{
			Config:       fpgavirtio.Config{Seed: 3},
			WaitC2HReady: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 256+54)
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rtt, err := xs.RoundTrip(buf)
			if err != nil {
				b.Fatal(err)
			}
			samples = append(samples, rtt)
		}
		reportSim(b, samples)
	})
}

// BenchmarkE7Bypass measures the host-bypass interface (E7).
func BenchmarkE7Bypass(b *testing.B) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 4, Quiet: true}})
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ns.BypassCopy(1024)
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, d)
	}
	reportSim(b, samples)
}

// BenchmarkE8Portability measures the other device personalities and
// the Gen3 link (E8).
func BenchmarkE8Portability(b *testing.B) {
	b.Run("console", func(b *testing.B) {
		cs, err := fpgavirtio.OpenConsole(fpgavirtio.Config{Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 256)
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rtt, err := cs.WriteRead(msg)
			if err != nil {
				b.Fatal(err)
			}
			samples = append(samples, rtt)
		}
		reportSim(b, samples)
	})
	b.Run("blk-write-read", func(b *testing.B) {
		bs, err := fpgavirtio.OpenBlk(fpgavirtio.BlkConfig{Config: fpgavirtio.Config{Seed: 5}})
		if err != nil {
			b.Fatal(err)
		}
		sector := make([]byte, 512)
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w, err := bs.WriteSector(uint64(i%1024), sector)
			if err != nil {
				b.Fatal(err)
			}
			_, r, err := bs.ReadSector(uint64(i % 1024))
			if err != nil {
				b.Fatal(err)
			}
			samples = append(samples, w+r)
		}
		reportSim(b, samples)
	})
	b.Run("net-gen3x4", func(b *testing.B) {
		ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
			Config: fpgavirtio.Config{Seed: 5, Link: fpgavirtio.Gen3x4},
		})
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 256)
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, rtt, err := ns.Ping(buf)
			if err != nil {
				b.Fatal(err)
			}
			samples = append(samples, rtt)
		}
		reportSim(b, samples)
	})
}

// BenchmarkE9EventIdx measures burst signalling under both suppression
// mechanisms (E9).
func BenchmarkE9EventIdx(b *testing.B) {
	for _, arm := range []struct {
		name     string
		eventIdx bool
	}{{"flags", false}, {"event-idx", true}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
				Config:      fpgavirtio.Config{Seed: 6},
				UseEventIdx: arm.eventIdx,
			})
			if err != nil {
				b.Fatal(err)
			}
			doorbells := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 32, PayloadSize: 128, Window: 32})
				if err != nil {
					b.Fatal(err)
				}
				doorbells += res.Doorbells
			}
			b.ReportMetric(float64(doorbells)/float64(b.N*32), "doorbells/pkt")
		})
	}
}

// BenchmarkE10OSProfiles measures the host-profile grid (E10).
func BenchmarkE10OSProfiles(b *testing.B) {
	for _, prof := range []fpgavirtio.HostProfile{
		fpgavirtio.DesktopHost, fpgavirtio.ServerHost, fpgavirtio.RTHost,
	} {
		prof := prof
		b.Run(prof.String(), func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
				Config: fpgavirtio.Config{Seed: 7, Host: prof},
			})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 256)
			samples := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rtt, err := ns.Ping(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, rtt)
			}
			reportSim(b, samples)
			b.ReportMetric(float64(pctOf(samples, 99.9).Nanoseconds())/1000, "sim-p999-us")
		})
	}
}

// BenchmarkE11Throughput measures pipelined bursts (E11); each iteration
// is one 64-packet burst.
func BenchmarkE11Throughput(b *testing.B) {
	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: 8}})
	if err != nil {
		b.Fatal(err)
	}
	var elapsed time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 64, PayloadSize: 256, Window: 64})
		if err != nil {
			b.Fatal(err)
		}
		elapsed += res.Elapsed
	}
	pktPerSec := float64(b.N*64) / elapsed.Seconds()
	b.ReportMetric(pktPerSec/1000, "sim-kpkts/s")
}

// BenchmarkE12RingFormat measures both virtqueue formats (E12).
func BenchmarkE12RingFormat(b *testing.B) {
	for _, arm := range []struct {
		name   string
		packed bool
	}{{"split", false}, {"packed", true}} {
		arm := arm
		b.Run(arm.name, func(b *testing.B) {
			ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{
				Config:        fpgavirtio.Config{Seed: 9},
				UsePackedRing: arm.packed,
			})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 256)
			samples := make([]time.Duration, 0, b.N)
			var hw time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := ns.PingDetailed(buf)
				if err != nil {
					b.Fatal(err)
				}
				samples = append(samples, s.Total)
				hw += s.Hardware
			}
			reportSim(b, samples)
			b.ReportMetric(float64(hw.Nanoseconds())/float64(b.N)/1000, "sim-hw-us/op")
		})
	}
}
