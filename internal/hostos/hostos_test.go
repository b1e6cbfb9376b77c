package hostos

import (
	"math"
	"testing"

	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
)

// quiet returns a config with all stochastic noise disabled, so tests
// can assert exact costs.
func quiet() Config {
	c := DefaultConfig()
	c.JitterSigma = 0
	c.PreemptMeanGap = 0
	c.WakeTailProb = 0
	return c
}

func newHost(t *testing.T, cfg Config, seed uint64) (*sim.Sim, *Host) {
	t.Helper()
	s := sim.New()
	return s, New(s, 1<<20, cfg, seed)
}

func TestCPUWorkExactWhenQuiet(t *testing.T) {
	s, h := newHost(t, quiet(), 1)
	var took sim.Duration
	s.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		h.CPUWork(p, sim.Us(3))
		took = p.Now().Sub(t0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if took != sim.Us(3) {
		t.Fatalf("took %v, want 3us", took)
	}
}

func TestCPUWorkJitterClamped(t *testing.T) {
	cfg := quiet()
	cfg.JitterSigma = 0.3
	s, h := newHost(t, cfg, 2)
	base := sim.Us(10)
	var samples []sim.Duration
	s.Go("p", func(p *sim.Proc) {
		for i := 0; i < 2000; i++ {
			t0 := p.Now()
			h.CPUWork(p, base)
			samples = append(samples, p.Now().Sub(t0))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, d := range samples {
		if d < base/2 || d > 8*base {
			t.Fatalf("sample %v escaped clamp", d)
		}
		sum += float64(d)
	}
	mean := sum / float64(len(samples))
	// Lognormal with sigma 0.3: mean factor ~ exp(0.045) ~ 1.046.
	if mean < float64(base)*0.95 || mean > float64(base)*1.2 {
		t.Fatalf("mean %v not near base %v", sim.Duration(mean), base)
	}
}

func TestPreemptionHazard(t *testing.T) {
	cfg := quiet()
	cfg.PreemptMeanGap = sim.Ms(1)
	cfg.PreemptBase = sim.Us(50)
	cfg.PreemptExpMean = sim.Us(1)
	s, h := newHost(t, cfg, 3)
	seg := sim.Us(10) // hazard per segment ~1%
	n := 20000
	hits := 0
	s.Go("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			t0 := p.Now()
			h.CPUWork(p, seg)
			if p.Now().Sub(t0) > sim.Us(40) {
				hits++
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(hits) / float64(n)
	want := 1 - math.Exp(-10.0/1000)
	if rate < want/2 || rate > want*2 {
		t.Fatalf("preemption rate %v, want ~%v", rate, want)
	}
}

// cpuWorkRef is CPUWork without the preemption-hazard table: it
// recomputes math.Exp on every call.
func cpuWorkRef(h *Host, p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	jittered := h.rng.Jitter(d, h.cfg.JitterSigma)
	h.met.jitterNs.Add(int64((jittered - d) / sim.Nanosecond))
	p.Sleep(jittered)
	if h.cfg.PreemptMeanGap > 0 {
		pHit := 1 - math.Exp(-float64(d)/float64(h.cfg.PreemptMeanGap))
		if h.rng.Bool(pHit) {
			cost := h.cfg.PreemptBase + sim.NsF(h.rng.Exp(h.cfg.PreemptExpMean.Nanoseconds()))
			h.met.preemptions.Inc()
			h.met.preemptNs.Add(int64(cost / sim.Nanosecond))
			p.Sleep(cost)
		}
	}
}

// TestCPUWorkPreemptMemoExact drives two identically seeded hosts with
// the same interleaved durations — busy-poll spins with a yield every
// 64, syscall and copy costs, repeats and changes of d — one through
// CPUWork and one through the table-free reference. The slept sequence,
// the RNG state and the noise counters must be identical.
func TestCPUWorkPreemptMemoExact(t *testing.T) {
	hazard := DefaultConfig()
	hazard.PreemptMeanGap = sim.Us(20) // a hit every few hundred spins
	cases := []struct {
		name     string
		cfg      Config
		wantHits bool
	}{
		{"default", DefaultConfig(), false},
		{"hazard", hazard, true},
		{"quiet", quiet(), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			durs := func(h *Host) []sim.Duration {
				var ds []sim.Duration
				for i := 1; i <= 20000; i++ {
					ds = append(ds, SpinCost)
					if i%SpinBudget == 0 {
						ds = append(ds, YieldCost)
					}
					switch i % 997 {
					case 0:
						ds = append(ds, c.cfg.SyscallEntry, h.CopyCost(i%1500), h.CopyCost(i%1500), c.cfg.SyscallExit)
					case 500:
						ds = append(ds, 0, c.cfg.WakeLatency, c.cfg.WakeLatency)
					}
				}
				return ds
			}
			type run struct {
				trace                         []sim.TraceRecord
				host                          *Host
				preempts, preemptNs, jitterNs int64
			}
			drive := func(work func(h *Host, p *sim.Proc, d sim.Duration)) run {
				s := sim.New()
				tr := &sim.RecordingTracer{}
				s.SetTracer(tr)
				h := New(s, 1<<20, c.cfg, 9)
				ds := durs(h)
				s.Go("p", func(p *sim.Proc) {
					for _, d := range ds {
						work(h, p, d)
					}
				})
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				return run{tr.Records, h, h.met.preemptions.Value(), h.met.preemptNs.Value(), h.met.jitterNs.Value()}
			}
			got := drive(func(h *Host, p *sim.Proc, d sim.Duration) { h.CPUWork(p, d) })
			want := drive(cpuWorkRef)
			if len(got.trace) != len(want.trace) {
				t.Fatalf("CPUWork slept %d times, reference %d", len(got.trace), len(want.trace))
			}
			for i := range got.trace {
				if got.trace[i] != want.trace[i] {
					t.Fatalf("sleep %d: CPUWork %+v, reference %+v", i, got.trace[i], want.trace[i])
				}
			}
			if *got.host.rng != *want.host.rng {
				t.Fatal("RNG state differs from the reference")
			}
			if got.preempts != want.preempts || got.preemptNs != want.preemptNs || got.jitterNs != want.jitterNs {
				t.Fatalf("counters (preemptions, preempt ns, jitter ns) = (%d, %d, %d), reference (%d, %d, %d)",
					got.preempts, got.preemptNs, got.jitterNs, want.preempts, want.preemptNs, want.jitterNs)
			}
			if c.wantHits && got.preempts == 0 {
				t.Fatal("no preemption hit; the hazard draw is unexercised")
			}
		})
	}
}

func TestClockGettime(t *testing.T) {
	s, h := newHost(t, quiet(), 4)
	var r1, r2 sim.Time
	s.Go("p", func(p *sim.Proc) {
		p.Sleep(sim.Duration(1500)) // 1.5ns into the run
		r1 = h.ClockGettime(p)
		r2 = h.ClockGettime(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r1%sim.Time(sim.Ns(1)) != 0 {
		t.Fatalf("reading %v not 1ns-quantized", r1)
	}
	if r2.Sub(r1) != quiet().ClockReadCost {
		t.Fatalf("successive readings %v apart, want %v", r2.Sub(r1), quiet().ClockReadCost)
	}
}

func TestCopyCostLinear(t *testing.T) {
	_, h := newHost(t, quiet(), 5)
	c0 := h.CopyCost(0)
	c1k := h.CopyCost(1024)
	c2k := h.CopyCost(2048)
	if c0 != quiet().CopyBase {
		t.Fatalf("zero-byte copy = %v", c0)
	}
	if c2k-c1k != c1k-c0 {
		t.Fatalf("copy cost not linear: %v %v %v", c0, c1k, c2k)
	}
}

func TestIRQDispatch(t *testing.T) {
	s, h := newHost(t, quiet(), 6)
	cs := pcie.NewConfigSpace(1, 2, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := h.RC.Attach("dev", cs, pcie.DefaultGen2x2())
	ep.SetBarHandlers(0, pcie.BarHandlers{})
	ep.ConfigureMSIX(2)
	var handled sim.Time
	h.RegisterIRQ(ep, 1, func(p *sim.Proc) { handled = p.Now() })
	var raised sim.Time
	s.Go("enum", func(p *sim.Proc) { h.RC.Enumerate(p) })
	s.GoAfter(sim.Us(10), "dev", func(p *sim.Proc) {
		raised = p.Now()
		ep.RaiseMSIX(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if handled == 0 {
		t.Fatal("ISR never ran")
	}
	// MSI wire (28B ser + 200ns prop) + APIC 300ns + IRQEntry 900ns.
	want := raised.Add(sim.Ns(28+200+300) + quiet().IRQEntry)
	if handled != want {
		t.Fatalf("ISR at %v, want %v", handled, want)
	}
}

func TestUnhandledIRQPanics(t *testing.T) {
	s, h := newHost(t, quiet(), 7)
	cs := pcie.NewConfigSpace(1, 2, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := h.RC.Attach("dev", cs, pcie.DefaultGen2x2())
	ep.SetBarHandlers(0, pcie.BarHandlers{})
	ep.ConfigureMSIX(1)
	s.Go("enum", func(p *sim.Proc) { h.RC.Enumerate(p) })
	s.GoAfter(sim.Us(10), "dev", func(p *sim.Proc) { ep.RaiseMSIX(0) })
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unhandled IRQ")
		}
	}()
	_ = s.Run()
}

// TestIRQHandlerTable: a vector with no handler panics with the
// "unhandled IRQ" text whether the endpoint has no handlers, has one
// on a higher vector only, or has one on a lower vector only; an
// endpoint of another root complex cannot register a handler.
func TestIRQHandlerTable(t *testing.T) {
	for _, c := range []struct {
		name       string
		registered []int
	}{
		{"none", nil},
		{"higher only", []int{2}},
		{"lower only", []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, h := newHost(t, quiet(), 7)
			cs := pcie.NewConfigSpace(1, 2, 0, 0, 0)
			cs.SetBARSize(0, 4096)
			ep := h.RC.Attach("dev", cs, pcie.DefaultGen2x2())
			ep.SetBarHandlers(0, pcie.BarHandlers{})
			ep.ConfigureMSIX(3)
			for _, v := range c.registered {
				h.RegisterIRQ(ep, v, func(p *sim.Proc) {})
			}
			s.Go("enum", func(p *sim.Proc) { h.RC.Enumerate(p) })
			s.GoAfter(sim.Us(10), "dev", func(p *sim.Proc) { ep.RaiseMSIX(1) })
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = s.Run()
				return nil
			}()
			if want := "hostos: unhandled IRQ dev vector 1"; got != want {
				t.Fatalf("recovered %#v, want %q", got, want)
			}
		})
	}
	t.Run("foreign endpoint", func(t *testing.T) {
		_, h := newHost(t, quiet(), 7)
		_, other := newHost(t, quiet(), 8)
		cs := pcie.NewConfigSpace(1, 2, 0, 0, 0)
		ep := other.RC.Attach("dev", cs, pcie.DefaultGen2x2())
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("RegisterIRQ accepted an endpoint of another root complex")
			}
		}()
		h.RegisterIRQ(ep, 0, func(p *sim.Proc) {})
	})
}

func TestWaitQueueWakeLatency(t *testing.T) {
	s, h := newHost(t, quiet(), 8)
	wq := h.NewWaitQueue("test")
	var woke sim.Time
	s.Go("sleeper", func(p *sim.Proc) {
		wq.Wait(p)
		woke = p.Now()
	})
	var wakeAt sim.Time
	s.GoAfter(sim.Us(5), "waker", func(p *sim.Proc) {
		wakeAt = p.Now()
		wq.Wake()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := woke.Sub(wakeAt); got != quiet().WakeLatency {
		t.Fatalf("wake latency %v, want %v", got, quiet().WakeLatency)
	}
	if wq.Waiters() != 0 {
		t.Fatal("waiter not removed")
	}
}

func TestWaitQueueMultipleWaiters(t *testing.T) {
	s, h := newHost(t, quiet(), 9)
	wq := h.NewWaitQueue("multi")
	woken := 0
	for i := 0; i < 3; i++ {
		s.Go("w", func(p *sim.Proc) {
			wq.Wait(p)
			woken++
		})
	}
	s.GoAfter(sim.Us(1), "waker", func(p *sim.Proc) { wq.Wake() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

type echoDev struct {
	h      *Host
	stored []byte
}

func (d *echoDev) Write(p *sim.Proc, data []byte) (int, error) {
	d.h.Copy(p, len(data))
	d.stored = append([]byte{}, data...)
	return len(data), nil
}

func (d *echoDev) Read(p *sim.Proc, buf []byte) (int, error) {
	d.h.Copy(p, len(buf))
	return copy(buf, d.stored), nil
}

func TestCharDevFileOps(t *testing.T) {
	s, h := newHost(t, quiet(), 10)
	dev := &echoDev{h: h}
	h.RegisterCharDev("/dev/echo0", dev)
	if _, err := h.Open("/dev/missing"); err == nil {
		t.Fatal("open of missing device succeeded")
	}
	f, err := h.Open("/dev/echo0")
	if err != nil {
		t.Fatal(err)
	}
	var rtt sim.Duration
	var got []byte
	s.Go("app", func(p *sim.Proc) {
		t0 := p.Now()
		if _, err := f.Write(p, []byte("hello")); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 5)
		if _, err := f.Read(p, buf); err != nil {
			t.Error(err)
		}
		got = buf
		rtt = p.Now().Sub(t0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	cfg := quiet()
	want := 2*(cfg.SyscallEntry+cfg.SyscallExit) + 2*h.CopyCost(5)
	if rtt != want {
		t.Fatalf("rtt = %v, want %v", rtt, want)
	}
}

func TestDuplicateCharDevPanics(t *testing.T) {
	_, h := newHost(t, quiet(), 11)
	h.RegisterCharDev("/dev/x", &echoDev{h: h})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h.RegisterCharDev("/dev/x", &echoDev{h: h})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Duration {
		s, h := newHost(t, DefaultConfig(), 42)
		var out []sim.Duration
		s.Go("p", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				t0 := p.Now()
				h.CPUWork(p, sim.Us(2))
				out = append(out, p.Now().Sub(t0))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// irqBench builds a host whose endpoint's vector 1 has a step-form
// handler doing an ISR's work: a CPU segment, a read of a BAR register
// and the wake of a process waiting on a wait queue. raise delivers
// one MSI-X message and runs the simulation until the woken process
// has run; it returns how many wakes that process has seen.
func irqBench(cfg Config) (raise func() int) {
	s := sim.New()
	h := New(s, 1<<20, cfg, 6)
	cs := pcie.NewConfigSpace(1, 2, 0, 0, 0)
	cs.SetBARSize(0, 4096)
	ep := h.RC.Attach("dev", cs, pcie.DefaultGen2x2())
	status := uint64(0)
	ep.SetBarHandlers(0, pcie.BarHandlers{Read: func(off uint64, size int) uint64 { status++; return status }})
	ep.ConfigureMSIX(2)
	var bar0 uint64
	s.Go("enum", func(p *sim.Proc) { bar0 = h.RC.Enumerate(p)[0].BAR[0] })
	s.RunUntil(sim.Time(sim.Us(100)))
	wq := h.NewWaitQueue("isr")
	h.RegisterIRQSteps(ep, 1, func(irq *IRQ) sim.Duration {
		switch irq.PC {
		case 0:
			if st := h.StepWork(&irq.Work, sim.Ns(500)); st != 0 {
				return st
			}
			irq.Read = h.RC.BeginMMIORead(bar0, 4)
			irq.PC = 1
			if irq.Read.Await(irq.P) {
				return sim.Blocked
			}
		}
		irq.Read.End()
		wq.Wake()
		return 0
	})
	woken := 0
	s.Go("waiter", func(p *sim.Proc) {
		for {
			wq.Wait(p)
			woken++
		}
	})
	return func() int {
		ep.RaiseMSIX(1)
		// Past the wake tail's cap: the waiter has run and waits again.
		s.RunUntil(s.Now().Add(sim.Us(60)))
		return woken
	}
}

// TestIRQDispatchSteadyStateZeroAlloc: once warm, an MSI-X delivery
// through a step-form handler allocates nothing.
func TestIRQDispatchSteadyStateZeroAlloc(t *testing.T) {
	raise := irqBench(DefaultConfig())
	raise()
	before := raise()
	allocs := testing.AllocsPerRun(50, func() { raise() }) // 51 calls
	if woken := raise(); woken != before+52 {
		t.Fatalf("%d wakes over 52 interrupts, want 52", woken-before)
	}
	if allocs != 0 {
		t.Fatalf("an interrupt allocates %.1f objects, budget is 0", allocs)
	}
}

// BenchmarkIRQDispatch times one MSI-X delivery through a step-form
// handler that charges CPU work, reads a device register and wakes a
// waiting process: the interrupt half of an XDMA round trip.
func BenchmarkIRQDispatch(b *testing.B) {
	raise := irqBench(DefaultConfig())
	raise()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raise()
	}
}
