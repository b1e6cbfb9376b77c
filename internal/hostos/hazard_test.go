package hostos

import (
	"math"
	"testing"

	"fpgavirtio/internal/sim"
)

// chargedDurations lists the segment lengths cfg's host can be charged:
// its own syscall, wake and copy costs (every copy up to 64 KiB), the
// busy-poll spin and yield costs, every whole-nanosecond length up to
// 100 µs (the drivers', netstack's and sessions' fixed costs) and every
// software-checksum cost (300 ps per byte) up to 64 KiB.
func chargedDurations(h *Host) []sim.Duration {
	cfg := h.Config()
	ds := []sim.Duration{cfg.SyscallEntry, cfg.SyscallExit, cfg.WakeLatency, SpinCost, YieldCost}
	for n := 0; n <= 64<<10; n++ {
		ds = append(ds, h.CopyCost(n), sim.Duration(n)*300*sim.Picosecond)
	}
	for ns := int64(1); ns <= 100_000; ns++ {
		ds = append(ds, sim.Ns(ns))
	}
	return ds
}

// collidingDurations returns n distinct lengths that all hash to the
// hazard table's first slot, so they probe past one another and
// overflow the table.
func collidingDurations(n int) []sim.Duration {
	var ds []sim.Duration
	for d := sim.Duration(1); len(ds) < n; d++ {
		if uint64(d)*0x9e3779b97f4a7c15>>(64-hazardBits) == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestHazardTableExact checks that the hazard table returns exactly
// 1-math.Exp(-d/PreemptMeanGap), bit for bit, for every length the
// desktop, server and RT profiles charge and for lengths that collide
// in the table, both when the value is computed and when it is read
// back. The table is emptied every 32 lengths so each is cached.
func TestHazardTableExact(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"desktop", DefaultConfig()}, {"server", ServerConfig()}, {"rt", RTConfig()}} {
		t.Run(c.name, func(t *testing.T) {
			_, h := newHost(t, c.cfg, 1)
			ds := append(chargedDurations(h), collidingDurations(2*hazardSlots)...)
			for i, d := range ds {
				if i%32 == 0 {
					h.hazards = [hazardSlots]hazardEntry{}
				}
				want := math.Float64bits(1 - math.Exp(-float64(d)/float64(c.cfg.PreemptMeanGap)))
				for pass := 0; pass < 2; pass++ {
					if got := math.Float64bits(h.hazard(d)); got != want {
						t.Fatalf("hazard(%v) pass %d = %#x, formula %#x", d, pass, got, want)
					}
				}
			}
		})
	}
}

// TestHazardTableOverflow fills the table with lengths that share a
// home slot: the first hazardSlots are computed once and then read
// back, the rest find no slot and are recomputed on every call, all
// equal to the formula.
func TestHazardTableOverflow(t *testing.T) {
	_, h := newHost(t, DefaultConfig(), 1)
	ds := collidingDurations(2 * hazardSlots)
	for pass := 1; pass <= 3; pass++ {
		for _, d := range ds {
			if got, want := h.hazard(d), h.hazardOf(d); got != want {
				t.Fatalf("hazard(%v) = %v, formula %v", d, got, want)
			}
		}
		if want := int64(len(ds) + (pass-1)*(len(ds)-hazardSlots)); h.HazardComputes() != want {
			t.Fatalf("after pass %d: %d hazards computed, want %d", pass, h.HazardComputes(), want)
		}
	}
}

var cpuWorkSink sim.Duration

// BenchmarkCPUWork times CPUWork's two draws (jitter, then the
// preemption hazard) over a cycle of distinct segment lengths — spin,
// yield, syscall, wake and copy costs — as a net round trip charges
// them, so the hazard lookup moves between lengths on every call.
func BenchmarkCPUWork(b *testing.B) {
	s := sim.New()
	h := New(s, 1<<20, DefaultConfig(), 1)
	cfg := h.Config()
	ds := []sim.Duration{
		SpinCost, cfg.SyscallEntry, h.CopyCost(256), sim.Ns(350), sim.Ns(220),
		cfg.WakeLatency, YieldCost, sim.Ns(250), sim.Ns(380), cfg.SyscallExit, h.CopyCost(1024),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := ds[i%len(ds)]
		cpuWorkSink += h.jitter(d) + h.preemption(d)
	}
}
