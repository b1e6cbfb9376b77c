// Package hostos models the host operating system the drivers run in:
// system-call entry/exit, user/kernel copies, interrupt dispatch, wait
// queues with scheduler wake latency, a monotonic clock with 1 ns
// resolution, and the background noise (timer ticks, preemptions) that
// produces the latency tails the paper measures.
//
// The model is cost-based: driver and application code runs as sim
// processes and charges CPU time through this package, with seeded
// stochastic jitter so that 50,000-packet experiments produce stable,
// reproducible distributions.
package hostos

import (
	"fmt"
	"math"

	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Config holds the host platform cost model. Defaults (DefaultConfig)
// are calibrated to a Fedora 37-era desktop like the paper's testbed.
type Config struct {
	// SyscallEntry/SyscallExit price crossing the user/kernel boundary.
	SyscallEntry sim.Duration
	SyscallExit  sim.Duration
	// CopyPerByte prices copy_to_user/copy_from_user and other kernel
	// memcpy work, per byte.
	CopyPerByte sim.Duration
	// CopyBase is the fixed overhead of starting any copy.
	CopyBase sim.Duration
	// IRQEntry is vector dispatch to ISR-entry time once the APIC has
	// accepted the message.
	IRQEntry sim.Duration
	// SoftIRQLatency is ISR-exit to softirq/NAPI-poll start.
	SoftIRQLatency sim.Duration
	// WakeLatency is wake-up to woken-task-running (scheduler+context
	// switch) for a blocked thread.
	WakeLatency sim.Duration
	// ClockReadCost is the cost of clock_gettime(CLOCK_MONOTONIC).
	ClockReadCost sim.Duration
	// ClockResolution quantizes clock readings (1 ns on the testbed).
	ClockResolution sim.Duration

	// JitterSigma is the lognormal sigma applied to every charged CPU
	// segment (cache/TLB/frequency variation).
	JitterSigma float64
	// WakeTailProb is the probability a wakeup hits a busy runqueue /
	// deep C-state and pays WakeTailBase + Exp(WakeTailMean), capped at
	// WakeTailCap. Blocking paths with more wakeups per operation (the
	// XDMA driver's two interrupts per round trip) accumulate more of
	// this tail — the paper's 95/99% gap.
	WakeTailProb float64
	WakeTailBase sim.Duration
	WakeTailMean sim.Duration
	WakeTailCap  sim.Duration
	// PreemptMeanGap is the mean CPU time between background
	// preemptions (the hazard rate of being descheduled).
	PreemptMeanGap sim.Duration
	// PreemptBase + Exp(PreemptExpMean) is the cost of one preemption.
	PreemptBase    sim.Duration
	PreemptExpMean sim.Duration
}

// ServerConfig models a throughput-tuned server distribution: full
// speculative-execution mitigations (pricier syscalls and IRQ entry)
// but a quieter machine (fewer background tasks, longer preemption
// gaps) than the desktop profile.
func ServerConfig() Config {
	c := DefaultConfig()
	c.SyscallEntry += sim.Ns(250)
	c.SyscallExit += sim.Ns(200)
	c.IRQEntry += sim.Ns(300)
	c.JitterSigma = 0.12
	c.WakeTailProb = 0.03
	c.PreemptMeanGap = sim.Ms(12)
	return c
}

// RTConfig models a PREEMPT_RT-style kernel: threaded IRQs make
// interrupt entry and wakeups slightly slower on average, but the
// heavy scheduling tails are largely gone — the configuration the
// paper's "highly optimized applications" recommendation targets.
func RTConfig() Config {
	c := DefaultConfig()
	c.IRQEntry += sim.Ns(400)
	c.WakeLatency += sim.Ns(400)
	c.JitterSigma = 0.08
	c.WakeTailProb = 0.004
	c.WakeTailMean = sim.Us(4)
	c.WakeTailCap = sim.Us(10)
	c.PreemptMeanGap = sim.Ms(40)
	c.PreemptExpMean = sim.Us(4)
	c.PreemptBase = sim.Us(3)
	return c
}

// DefaultConfig returns the calibrated host cost model.
func DefaultConfig() Config {
	return Config{
		SyscallEntry:    sim.Ns(450),
		SyscallExit:     sim.Ns(350),
		CopyPerByte:     sim.Picosecond * 120, // ~8 GB/s effective
		CopyBase:        sim.Ns(40),
		IRQEntry:        sim.Ns(900),
		SoftIRQLatency:  sim.Ns(500),
		WakeLatency:     sim.Ns(1600),
		ClockReadCost:   sim.Ns(25),
		ClockResolution: sim.Ns(1),
		JitterSigma:     0.18,
		WakeTailProb:    0.055,
		WakeTailBase:    sim.Us(4),
		WakeTailMean:    sim.Us(13),
		WakeTailCap:     sim.Us(42),
		PreemptMeanGap:  sim.Ms(6),
		PreemptBase:     sim.Us(8),
		PreemptExpMean:  sim.Us(14),
	}
}

// Host is the operating-system instance: it owns host memory, the PCIe
// root complex, interrupt routing and the noise model.
type Host struct {
	Sim   *sim.Sim
	Mem   *mem.Memory
	Alloc *mem.Allocator
	RC    *pcie.RootComplex

	cfg Config
	rng *sim.RNG
	met hostMetrics

	// hazards caches CPUWork's preemption hazard per charged duration;
	// hazardComputes counts the hazards computed (see hazard).
	hazards        [hazardSlots]hazardEntry
	hazardComputes int64

	metrics    *telemetry.Registry
	irqActions [][]*irqAction // by endpoint index, then vector; see RegisterIRQ
	chardevs   map[string]CharDev

	spanEnter, spanExit sim.SpanKind
}

// irqAction is the dispatch record built once at registration: the
// composed ISR process name, the IRQ-layer span kind and the handler —
// a span-wrapped blocking closure or a step-form handler with its pool
// of per-interrupt states — so per-interrupt delivery does not format
// strings or allocate.
type irqAction struct {
	host  *Host
	name  string
	span  sim.SpanKind
	fn    func(p *sim.Proc)
	steps func(irq *IRQ) sim.Duration
	free  []*IRQ
}

// hostMetrics caches the OS-noise instruments so hot paths skip the
// registry lookup.
type hostMetrics struct {
	syscalls    *telemetry.Counter
	preemptions *telemetry.Counter
	preemptNs   *telemetry.Counter
	jitterNs    *telemetry.Counter
	wakeups     *telemetry.Counter
	wakeTails   *telemetry.Counter
	irqs        *telemetry.Counter
	wakeLatNs   *telemetry.HDRHistogram
}

// New builds a host with the given memory size and cost model, wiring
// itself up as the root complex's interrupt sink.
func New(s *sim.Sim, memBytes int, cfg Config, seed uint64) *Host {
	m := mem.New(memBytes)
	h := &Host{
		Sim: s,
		Mem: m,
		// Low memory is reserved so address 0 never looks like a valid
		// DMA target; allocations start at 64 KiB.
		Alloc:    mem.NewAllocator(m, 0x10000, memBytes-0x10000),
		cfg:      cfg,
		rng:      sim.NewRNG(seed).Fork("hostos"),
		chardevs: make(map[string]CharDev),
	}
	h.metrics = telemetry.NewRegistry()
	h.met = hostMetrics{
		syscalls:    h.metrics.Counter(telemetry.MetricHostSyscalls),
		preemptions: h.metrics.Counter(telemetry.MetricHostPreemptions),
		preemptNs:   h.metrics.Counter(telemetry.MetricHostPreemptNs),
		jitterNs:    h.metrics.Counter(telemetry.MetricHostJitterNs),
		wakeups:     h.metrics.Counter(telemetry.MetricHostWakeups),
		wakeTails:   h.metrics.Counter(telemetry.MetricHostWakeTailHits),
		irqs:        h.metrics.Counter(telemetry.MetricHostIRQsDelivered),
		// HDR (log-bucketed): wake latency is exactly the kind of
		// long-tailed distribution fixed bounds misrepresent — the
		// waketail path stretches wakes well past any preset bound,
		// and the HDR layout resolves those to ~1.6% instead of
		// lumping them into +Inf.
		wakeLatNs: h.metrics.HDR(telemetry.MetricHostWakeLatencyNs),
	}
	h.spanEnter = s.SpanKind(telemetry.LayerSyscall, "", "enter")
	h.spanExit = s.SpanKind(telemetry.LayerSyscall, "", "exit")
	h.RC = pcie.NewRootComplex(s, m, pcie.DefaultCosts())
	h.RC.SetMetrics(h.metrics)
	h.RC.SetIRQSink(h.deliverIRQ)
	return h
}

// Metrics returns the host's telemetry registry. Every layer booted
// on this host (PCIe endpoints, drivers, device models, the network
// stack) registers its instruments here.
func (h *Host) Metrics() *telemetry.Registry { return h.metrics }

// Config returns the host cost model.
func (h *Host) Config() Config { return h.cfg }

// RNG returns the host noise generator (for deriving workload streams).
func (h *Host) RNG() *sim.RNG { return h.rng }

// CPUWork charges d of CPU time to p, with multiplicative jitter and a
// preemption hazard proportional to d. Its two draws (jitter, then
// preemption) are the single source of all software latency variance —
// the busy-poll Spinner makes the same two per iteration — so both
// driver stacks are subject to exactly the same noise process, and the
// paper's variance difference emerges purely from how much software
// work each stack performs.
func (h *Host) CPUWork(p *sim.Proc, d sim.Duration) {
	if d <= 0 {
		return
	}
	p.Sleep(h.jitter(d))
	if cost := h.preemption(d); cost != 0 {
		p.Sleep(cost)
	}
}

// Work is the state of one CPU segment a step machine charges with
// StepWork.
type Work struct{ phase uint8 }

// StepWork is CPUWork for a step machine: the step calls it with the
// same w and d until it returns 0, and returns each nonzero result as
// its sleep. It makes CPUWork's two draws in the same order — the
// jitter first, the preemption once the jittered segment has run — so
// a segment charged either way advances the noise stream identically.
func (h *Host) StepWork(w *Work, d sim.Duration) sim.Duration {
	for {
		switch w.phase {
		case 0:
			if d <= 0 {
				return 0
			}
			w.phase = 1
			if j := h.jitter(d); j != 0 {
				return j
			}
		case 1:
			w.phase = 2
			if c := h.preemption(d); c != 0 {
				return c
			}
		default:
			w.phase = 0
			return 0
		}
	}
}

// jitter draws the jittered length of a d-long CPU segment and
// accounts the jitter: CPUWork's first draw.
func (h *Host) jitter(d sim.Duration) sim.Duration {
	jittered := h.rng.Jitter(d, h.cfg.JitterSigma)
	h.met.jitterNs.Add(int64((jittered - d) / sim.Nanosecond))
	return jittered
}

// preemption draws whether a d-long CPU segment is preempted and
// returns the preemption's cost, accounted, or 0: CPUWork's second
// draw, made once the segment itself has run.
func (h *Host) preemption(d sim.Duration) sim.Duration {
	if h.cfg.PreemptMeanGap <= 0 {
		return 0
	}
	if !h.rng.Bool(h.hazard(d)) {
		return 0
	}
	cost := h.cfg.PreemptBase + sim.NsF(h.rng.Exp(h.cfg.PreemptExpMean.Nanoseconds()))
	h.met.preemptions.Inc()
	h.met.preemptNs.Add(int64(cost / sim.Nanosecond))
	return cost
}

// hazardSlots is the size of the preemption-hazard table: a power of
// two at least twice the number of distinct segment lengths a session
// charges (26 at most on the measured workloads: net busy-poll under
// the chaos plan), so linear probing stays short and every length
// finds a slot.
const (
	hazardBits  = 6
	hazardSlots = 1 << hazardBits
)

// hazardEntry is one hazard-table slot; d == 0 marks it empty (CPUWork
// never charges a zero-length segment).
type hazardEntry struct {
	d sim.Duration
	p float64
}

// hazard returns the probability that a d-long segment is preempted.
// The value is a pure function of d (hazardOf), computed once per
// distinct d into an open-addressed table keyed on d exactly; once the
// table is full, a length with no slot is recomputed on every call.
func (h *Host) hazard(d sim.Duration) float64 {
	i := uint64(d) * 0x9e3779b97f4a7c15 >> (64 - hazardBits) // Fibonacci hashing
	for n := uint64(0); n < hazardSlots; n++ {
		e := &h.hazards[(i+n)%hazardSlots]
		if e.d == d {
			if fvassert.Enabled && e.p != h.hazardOf(d) {
				fvassert.Failf("hostos: cached preemption hazard %v for %v is not the formula's", e.p, d)
			}
			return e.p
		}
		if e.d == 0 {
			h.hazardComputes++
			e.d, e.p = d, h.hazardOf(d)
			return e.p
		}
	}
	h.hazardComputes++
	return h.hazardOf(d)
}

// hazardOf is the preemption hazard of a d-long segment: the chance
// that a Poisson process with mean gap PreemptMeanGap fires within d.
func (h *Host) hazardOf(d sim.Duration) float64 {
	return 1 - math.Exp(-float64(d)/float64(h.cfg.PreemptMeanGap))
}

// HazardComputes reports how many preemption hazards the host has
// computed rather than read from its table: a host-cost diagnostic
// that stops growing once every segment length a run charges is
// cached.
func (h *Host) HazardComputes() int64 { return h.hazardComputes }

// SyscallEnter charges the user-to-kernel transition.
func (h *Host) SyscallEnter(p *sim.Proc) {
	h.met.syscalls.Inc()
	sp := h.Sim.BeginSpan(h.spanEnter)
	h.CPUWork(p, h.cfg.SyscallEntry)
	sp.End()
}

// SyscallExit charges the kernel-to-user return.
func (h *Host) SyscallExit(p *sim.Proc) {
	sp := h.Sim.BeginSpan(h.spanExit)
	h.CPUWork(p, h.cfg.SyscallExit)
	sp.End()
}

// Nanosleep models clock_nanosleep: syscall entry, a timer sleep of at
// least d, the scheduler wake-up to get the task running again, and the
// return to user space. Used by the streaming benchmark's offered-rate
// pacing.
func (h *Host) Nanosleep(p *sim.Proc, d sim.Duration) {
	h.SyscallEnter(p)
	if d > 0 {
		p.Sleep(d)
		h.CPUWork(p, h.cfg.WakeLatency)
	}
	h.SyscallExit(p)
}

// CopyCost prices a kernel/user copy of n bytes.
func (h *Host) CopyCost(n int) sim.Duration {
	return h.cfg.CopyBase + sim.Duration(n)*h.cfg.CopyPerByte
}

// Copy charges a kernel/user copy of n bytes to p.
func (h *Host) Copy(p *sim.Proc, n int) { h.CPUWork(p, h.CopyCost(n)) }

// ClockGettime models clock_gettime(CLOCK_MONOTONIC): it charges the
// vDSO read cost and returns the time quantized to the clock resolution.
func (h *Host) ClockGettime(p *sim.Proc) sim.Time {
	p.Sleep(h.cfg.ClockReadCost)
	return p.Now().Quantize(h.cfg.ClockResolution)
}

// RegisterIRQ binds a blocking interrupt handler to (endpoint,
// vector), as request_irq does. The handler runs in its own
// interrupt-context process after the platform's dispatch latency. It
// is for handlers that must run blocking host software (a device
// reset); the rest register step-form handlers with RegisterIRQSteps.
func (h *Host) RegisterIRQ(ep *pcie.Endpoint, vector int, handler func(p *sim.Proc)) {
	act := h.newIRQAction(ep, vector)
	act.fn = func(p *sim.Proc) {
		// IRQ-layer span: handler entry to return, including any NAPI
		// poll the handler runs in its interrupt-context process.
		sp := h.Sim.BeginSpan(act.span)
		handler(p)
		sp.End()
	}
}

// RegisterIRQSteps binds a step-form interrupt handler to (endpoint,
// vector). Each interrupt runs as a sim step process, with no
// coroutine, started after the platform's dispatch latency: handler is
// its step, called with the interrupt's own IRQ until it returns 0, by
// the rules of sim.Sim.GoSteps. The IRQ-layer span opens at the first
// step and closes at the last.
func (h *Host) RegisterIRQSteps(ep *pcie.Endpoint, vector int, handler func(irq *IRQ) sim.Duration) {
	h.newIRQAction(ep, vector).steps = handler
}

// newIRQAction installs the dispatch record of (endpoint, vector).
func (h *Host) newIRQAction(ep *pcie.Endpoint, vector int) *irqAction {
	act := &irqAction{host: h, name: fmt.Sprintf("isr:%s:%d", ep.Name(), vector)}
	act.span = h.Sim.SpanKind(telemetry.LayerIRQ, "", act.name)
	i := ep.Index()
	if eps := h.RC.Endpoints(); i >= len(eps) || eps[i] != ep {
		panic(fmt.Sprintf("hostos: IRQ handler for %s, which is not attached to this host", ep.Name()))
	}
	if i >= len(h.irqActions) {
		h.irqActions = append(h.irqActions, make([][]*irqAction, i+1-len(h.irqActions))...)
	}
	if vector >= len(h.irqActions[i]) {
		h.irqActions[i] = append(h.irqActions[i], make([]*irqAction, vector+1-len(h.irqActions[i]))...)
	}
	h.irqActions[i][vector] = act
	return act
}

func (h *Host) deliverIRQ(ep *pcie.Endpoint, vector int) {
	var act *irqAction
	if i := ep.Index(); i < len(h.irqActions) && vector < len(h.irqActions[i]) {
		act = h.irqActions[i][vector]
	}
	if act == nil {
		panic(fmt.Sprintf("hostos: unhandled IRQ %s vector %d", ep.Name(), vector))
	}
	h.met.irqs.Inc()
	if act.steps == nil {
		h.Sim.GoAfter(h.cfg.IRQEntry, act.name, act.fn)
		return
	}
	var irq *IRQ
	if n := len(act.free); n > 0 {
		irq = act.free[n-1]
		act.free[n-1] = nil
		act.free = act.free[:n-1]
	} else {
		irq = &IRQ{act: act}
		irq.step = irq.run
	}
	irq.P = h.Sim.GoSteps(h.cfg.IRQEntry, act.name, irq.step)
}

// IRQ is one interrupt of a step-form handler: the handler's state
// for this delivery alone. Overlapping interrupts on one vector each
// get their own, and an ended one is pooled for the vector's next
// interrupt, so delivery allocates nothing in steady state.
type IRQ struct {
	// P is the interrupt's step process, for the handler's Awaits.
	P *sim.Proc
	// PC is where the handler's step resumes; 0 at the first step.
	PC uint8
	// Work is the handler's CPU segment in flight (Host.StepWork).
	Work Work
	// Read is the handler's MMIO read in flight.
	Read *pcie.MMIORead

	act     *irqAction
	started bool
	sp      sim.SpanRef
	step    func() sim.Duration // run, bound once
}

// run is the interrupt's step: the handler inside the IRQ-layer span.
func (irq *IRQ) run() sim.Duration {
	act := irq.act
	if !irq.started {
		irq.started = true
		irq.sp = act.host.Sim.BeginSpan(act.span)
	}
	d := act.steps(irq)
	if d == 0 {
		irq.sp.End()
		irq.P, irq.PC, irq.Work, irq.Read, irq.started, irq.sp = nil, 0, Work{}, nil, false, sim.SpanRef{}
		act.free = append(act.free, irq)
	}
	return d
}

// WaitQueue is a kernel wait queue: sleepers pay the scheduler wake
// latency when awakened. Waiters park directly on the scheduler
// (sim.Proc.Park) and Wake schedules each task's resume after its own
// jittered wake latency, like a per-task runqueue placement — with no
// per-wait trigger or closure allocation.
type WaitQueue struct {
	host     *Host
	name     string
	parkName string
	wakeName string
	waiters  []*sim.Proc
}

// NewWaitQueue returns an empty wait queue.
func (h *Host) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{
		host:     h,
		name:     name,
		parkName: "wq:" + name,
		wakeName: "wake:" + name,
	}
}

// Wait blocks p until a Wake call releases it; the woken process
// resumes only after the scheduler wake latency (jittered).
func (wq *WaitQueue) Wait(p *sim.Proc) {
	wq.waiters = append(wq.waiters, p)
	p.Park(wq.parkName)
}

// Wake releases all current waiters; each becomes runnable after the
// jittered wake latency.
func (wq *WaitQueue) Wake() {
	h := wq.host
	for i, p := range wq.waiters {
		d := h.rng.Jitter(h.cfg.WakeLatency, h.cfg.JitterSigma)
		if h.cfg.WakeTailProb > 0 && h.rng.Bool(h.cfg.WakeTailProb) {
			extra := h.cfg.WakeTailBase + sim.NsF(h.rng.Exp(h.cfg.WakeTailMean.Nanoseconds()))
			if extra > h.cfg.WakeTailCap {
				extra = h.cfg.WakeTailCap
			}
			d += extra
			h.met.wakeTails.Inc()
		}
		h.met.wakeups.Inc()
		h.met.wakeLatNs.Observe(int64(d.Nanoseconds()))
		h.Sim.ResumeAfter(d, wq.wakeName, p)
		wq.waiters[i] = nil
	}
	wq.waiters = wq.waiters[:0]
}

// Waiters reports the number of blocked tasks.
func (wq *WaitQueue) Waiters() int { return len(wq.waiters) }

// CharDev is the file-operations surface a character-device driver
// registers (the XDMA driver's /dev/xdma0_h2c_0-style nodes).
type CharDev interface {
	// Write moves len(data) bytes from the user buffer to the device,
	// blocking until the driver considers the operation complete.
	Write(p *sim.Proc, data []byte) (int, error)
	// Read fills buf from the device, blocking per driver semantics.
	Read(p *sim.Proc, buf []byte) (int, error)
}

// RegisterCharDev publishes a character device under a /dev-style name.
func (h *Host) RegisterCharDev(name string, dev CharDev) {
	if _, exists := h.chardevs[name]; exists {
		panic("hostos: duplicate chardev " + name)
	}
	h.chardevs[name] = dev
}

// File is an open character-device handle. Its methods price the
// system-call boundary around the driver's file operations.
type File struct {
	host *Host
	dev  CharDev
	name string
}

// Open opens a registered character device.
func (h *Host) Open(name string) (*File, error) {
	dev, ok := h.chardevs[name]
	if !ok {
		return nil, fmt.Errorf("hostos: no such device %q", name)
	}
	return &File{host: h, dev: dev, name: name}, nil
}

// Write is the write(2) path: syscall entry, driver file op, exit.
func (f *File) Write(p *sim.Proc, data []byte) (int, error) {
	f.host.SyscallEnter(p)
	n, err := f.dev.Write(p, data)
	f.host.SyscallExit(p)
	return n, err
}

// Read is the read(2) path.
func (f *File) Read(p *sim.Proc, buf []byte) (int, error) {
	f.host.SyscallEnter(p)
	n, err := f.dev.Read(p, buf)
	f.host.SyscallExit(p)
	return n, err
}
