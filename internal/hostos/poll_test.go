package hostos

import (
	"math/rand"
	"testing"

	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

// spinRef is the busy-poll loop the stepped Spin replaced, kept as its
// oracle: every check calls ready from the spinning process, and every
// iteration charges its costs through CPUWork there.
func spinRef(sp *Spinner, p *sim.Proc, ready func(p *sim.Proc) bool, onYield func(p *sim.Proc)) int {
	empty := 0
	for !ready(p) {
		empty++
		sp.spins.Inc()
		sp.wasted.Inc()
		sp.burnNs.Add(int64(SpinCost / sim.Nanosecond))
		sp.host.CPUWork(p, SpinCost)
		if empty%SpinBudget == 0 {
			sp.yields.Inc()
			sp.burnNs.Add(int64(YieldCost / sim.Nanosecond))
			sp.host.CPUWork(p, YieldCost)
			if onYield != nil {
				onYield(p)
			}
		}
	}
	sp.spins.Inc()
	return empty
}

// fabricCycle is the device's clock period (125 MHz).
const fabricCycle = 8 * sim.Nanosecond

// spinDevice is a device process that, after a seeded random run of
// 1 to 12 sleeps of 1 to cycles fabric-clock cycles each, bumps a
// completion count in a host-memory word.
type spinDevice struct {
	h      *Host
	word   mem.Addr
	rng    *rand.Rand
	cycles int
}

func newSpinDevice(h *Host, seed int64, cycles int) *spinDevice {
	return &spinDevice{h: h, word: h.Alloc.Alloc(64, 64), rng: rand.New(rand.NewSource(seed)), cycles: cycles}
}

// run completes n times, then returns; n < 0 runs forever.
func (d *spinDevice) run(p *sim.Proc, n int) {
	for i := 0; i != n; i++ {
		for k := d.rng.Intn(12); k >= 0; k-- {
			p.Sleep(sim.Duration(d.rng.Intn(d.cycles)+1) * fabricCycle)
		}
		d.h.Mem.PutU32(d.word, d.h.Mem.U32(d.word)+1)
	}
}

// completions reads the device's completion count.
func (d *spinDevice) completions() int { return int(d.h.Mem.U32(d.word)) }

// spinCase is one shape of spin loop: app spins through spin until it
// consumes rounds completions of the device it is handed.
type spinCase struct {
	name   string
	cfg    Config
	cycles int // the device's longest sleep, in fabric cycles
	rounds int // device completions the app consumes
	app    func(h *Host, dev *spinDevice, spin spinFunc, p *sim.Proc) []int
}

// spinFunc is Spin or the oracle, with the stepped Spin's signature.
type spinFunc func(p *sim.Proc, pending func() bool, ready func(p *sim.Proc) bool, onYield func(p *sim.Proc)) int

var spinCases = []spinCase{
	{
		// A pure predicate: pending is ready.
		name: "pure", cfg: DefaultConfig(), cycles: 40, rounds: 300,
		app: func(h *Host, dev *spinDevice, spin spinFunc, p *sim.Proc) []int {
			var empties []int
			for consumed := 0; consumed < 300; consumed++ {
				pending := func() bool { return dev.completions() > consumed }
				empties = append(empties, spin(p, pending, nil, nil))
				h.CPUWork(p, sim.Ns(300))
			}
			return empties
		},
	},
	{
		// BusyPoll's shape: ready drains one completion into a socket,
		// paying for it, and reports true only once two wait there.
		name: "drain", cfg: DefaultConfig(), cycles: 40, rounds: 300,
		app: func(h *Host, dev *spinDevice, spin spinFunc, p *sim.Proc) []int {
			drained, consumed := 0, 0
			pending := func() bool { return drained-consumed >= 2 || dev.completions() > drained }
			ready := func(p *sim.Proc) bool {
				if dev.completions() > drained {
					h.CPUWork(p, sim.Ns(150))
					drained++
				}
				return drained-consumed >= 2
			}
			var empties []int
			for consumed < 300 {
				empties = append(empties, spin(p, pending, ready, nil))
				consumed += 2
			}
			return empties
		},
	},
	{
		// The XDMA triage's shape: past a deadline the yield hook does
		// work and settles an outcome ready reads before the word. The
		// device is slow enough for spins to reach their yield slots.
		name: "triage", cfg: DefaultConfig(), cycles: 400, rounds: 200,
		app: func(h *Host, dev *spinDevice, spin spinFunc, p *sim.Proc) []int {
			var empties []int
			timeouts := 0
			for consumed := 0; consumed < 200; {
				timedOut := false
				deadline := p.Now().Add(sim.Us(8))
				pending := func() bool { return dev.completions() > consumed }
				ready := func(p *sim.Proc) bool { return timedOut || dev.completions() > consumed }
				onYield := func(p *sim.Proc) {
					if p.Now() < deadline {
						return
					}
					h.CPUWork(p, sim.Ns(900))
					timedOut = true
				}
				empties = append(empties, spin(p, pending, ready, onYield))
				if timedOut {
					timeouts++
					continue
				}
				consumed++
			}
			return append(empties, timeouts)
		},
	},
	{
		// Preemption on: a hit every few hundred spins, in spin and
		// yield slots alike.
		name: "preempt", cfg: func() Config { c := DefaultConfig(); c.PreemptMeanGap = sim.Us(20); return c }(), cycles: 400, rounds: 300,
		app: func(h *Host, dev *spinDevice, spin spinFunc, p *sim.Proc) []int {
			var empties []int
			for consumed := 0; consumed < 300; consumed++ {
				pending := func() bool { return dev.completions() > consumed }
				empties = append(empties, spin(p, pending, nil, nil))
			}
			return empties
		},
	},
}

// spinOutcome is everything a spin run leaves behind.
type spinOutcome struct {
	empties  []int
	trace    []sim.TraceRecord
	counters [7]int64 // poll.* then hostos.* noise counters
	rng      sim.RNG
	end      sim.Time
	switches int64
}

// runSpinCase runs c with two spinning apps on one Spinner, each
// against its own device, through Spin or the oracle.
func runSpinCase(t *testing.T, c spinCase, seed int64, oracle bool) spinOutcome {
	s := sim.New()
	tr := &sim.RecordingTracer{}
	s.SetTracer(tr)
	h := New(s, 1<<20, c.cfg, uint64(seed))
	sp := h.NewSpinner()
	spin := spinFunc(sp.Spin)
	if oracle {
		spin = func(p *sim.Proc, pending func() bool, ready func(p *sim.Proc) bool, onYield func(p *sim.Proc)) int {
			if ready == nil {
				ready = func(*sim.Proc) bool { return pending() }
			}
			return spinRef(sp, p, ready, onYield)
		}
	}
	var out spinOutcome
	for i := int64(0); i < 2; i++ {
		dev := newSpinDevice(h, seed*10+i, c.cycles)
		s.Go("device", func(p *sim.Proc) { dev.run(p, c.rounds) })
		s.GoAfter(sim.Duration(i)*sim.Ns(100), "app", func(p *sim.Proc) {
			out.empties = append(out.empties, c.app(h, dev, spin, p)...)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out.trace = tr.Records
	out.counters = [7]int64{
		sp.spins.Value(), sp.wasted.Value(), sp.yields.Value(), sp.burnNs.Value(),
		h.met.preemptions.Value(), h.met.preemptNs.Value(), h.met.jitterNs.Value(),
	}
	out.rng = *h.rng
	out.end = s.Now()
	out.switches = s.Switches()
	return out
}

// TestSpinMatchesLoop drives the stepped Spin and the plain loop it
// replaced against devices that complete at seeded random times, with
// two processes spinning on one Spinner. Return values, the traced
// events, the poll.* and hostos.* counters, the RNG state and the end
// time must be identical, and the stepped Spin must switch less.
func TestSpinMatchesLoop(t *testing.T) {
	for _, c := range spinCases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				got, want := runSpinCase(t, c, seed, false), runSpinCase(t, c, seed, true)
				if i := firstDiff(got.empties, want.empties); i >= 0 {
					t.Fatalf("seed %d: spin %d of %d differs", seed, i, len(want.empties))
				}
				if i := firstDiff(got.trace, want.trace); i >= 0 {
					t.Fatalf("seed %d: traced event %d of %d differs", seed, i, len(want.trace))
				}
				if got.counters != want.counters {
					t.Fatalf("seed %d: counters %v, loop %v", seed, got.counters, want.counters)
				}
				if got.rng != want.rng || got.end != want.end {
					t.Fatalf("seed %d: RNG state or end time (%v vs %v) differs", seed, got.end, want.end)
				}
				if got.switches >= want.switches {
					t.Fatalf("seed %d: Spin switched %d times, loop %d", seed, got.switches, want.switches)
				}
				if c.name == "preempt" && got.counters[4] == 0 {
					t.Fatalf("seed %d: no preemption hit; the hazard draw is unexercised", seed)
				}
				if c.cycles > 100 && got.counters[2] == 0 {
					t.Fatalf("seed %d: no yield slot; the yield path is unexercised", seed)
				}
				if c.name == "triage" && got.empties[len(got.empties)-1] == 0 {
					t.Fatalf("seed %d: no spin timed out; the yield hook is unexercised", seed)
				}
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// spinBench is a spinner process spinning forever against a device
// process completing forever, both bound once.
func spinBench(cfg Config) (*sim.Sim, *int) {
	s := sim.New()
	h := New(s, 1<<20, cfg, 1)
	sp := h.NewSpinner()
	dev := newSpinDevice(h, 1, 40)
	spins := new(int)
	consumed := 0
	pending := func() bool { return dev.completions() > consumed }
	s.Go("device", func(p *sim.Proc) { dev.run(p, -1) })
	s.Go("app", func(p *sim.Proc) {
		for {
			sp.Spin(p, pending, nil, nil)
			consumed++
			*spins++
		}
	})
	return s, spins
}

func TestSpinSteadyStateZeroAlloc(t *testing.T) {
	s, spins := spinBench(DefaultConfig())
	s.RunUntil(s.Now().Add(sim.Us(200)))
	before := *spins
	allocs := testing.AllocsPerRun(5, func() { s.RunUntil(s.Now().Add(sim.Us(200))) })
	if *spins == before {
		t.Fatal("no Spin completed; the test measures nothing")
	}
	if allocs != 0 {
		t.Fatalf("steady-state spinning allocates %.1f objects per 200 us, budget is 0", allocs)
	}
}

// BenchmarkSpinAgainstDevice measures one Spin call against a device
// process sleeping in fabric-clock steps: about 13 spin iterations and
// 7 device wakes per call, the device's wakes running the spinner's
// iterations as continuations.
func BenchmarkSpinAgainstDevice(b *testing.B) {
	s, spins := spinBench(DefaultConfig())
	s.RunUntil(s.Now().Add(sim.Us(200)))
	b.ReportAllocs()
	b.ResetTimer()
	for start := *spins; *spins-start < b.N; {
		s.RunUntil(s.Now().Add(sim.Us(10)))
	}
}
