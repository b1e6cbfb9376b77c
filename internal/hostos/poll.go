package hostos

import (
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Busy-poll cost model. Poll-mode datapaths replace the interrupt
// pipeline (MSI-X message, IRQ entry, softirq, scheduler wake) with a
// loop that re-reads a completion indicator from its spinning context.
// The loop still costs CPU: every iteration charges SpinCost with
// CPUWork's two draws — the jittered segment, then the preemption
// hazard once the segment has run — the same noise process as every
// other software segment, so poll-mode latency distributions stay
// seeded and replayable, and the simulation cannot livelock (time
// advances on every empty iteration). Every SpinBudget empty iterations
// the loop yields the processor (sched_yield/cpu_relax batch), charging
// YieldCost the same way and giving the caller a hook to run slow-path
// checks such as watchdog-less fault detection.
//
// The iterations run as a sim.Proc.SleepSteps continuation: while the
// device processes work, the process that fires the spinner's wake runs
// the next iteration inline — draws, counters, the next sleep — and the
// spinning process is switched into only when its side-effect-free
// probe sees the completion or a yield hook is due.

// The calibrated spin policy: ~80 ns per poll of a remote cache line,
// a yield every 64 empty spins costing ~700 ns.
const (
	// SpinCost is the CPU time of one poll iteration: an uncached
	// status read (ring idx / writeback word) plus loop overhead.
	SpinCost = 80 * sim.Nanosecond
	// SpinBudget is the number of empty iterations between yields.
	SpinBudget = 64
	// YieldCost is the cost of one yield slot (sched_yield latency).
	YieldCost = 700 * sim.Nanosecond
)

// Spinner executes busy-poll loops under the spin policy, charging their
// CPU cost and accounting them in the poll.* instruments. One Spinner
// serves a whole driver, every queue pair included, so several
// processes may spin on it at once: each Spin takes its loop state from
// the Spinner's pool, and steady-state spinning allocates nothing.
type Spinner struct {
	host *Host
	free []*spinRun // idle loop states

	spins  *telemetry.Counter
	wasted *telemetry.Counter
	yields *telemetry.Counter
	burnNs *telemetry.Counter
}

// NewSpinner builds a Spinner on this host's cost model and registry.
func (h *Host) NewSpinner() *Spinner {
	return &Spinner{
		host:   h,
		spins:  h.metrics.Counter(telemetry.MetricPollSpins),
		wasted: h.metrics.Counter(telemetry.MetricPollWasted),
		yields: h.metrics.Counter(telemetry.MetricPollYields),
		burnNs: h.metrics.Counter(telemetry.MetricPollBurnNs),
	}
}

// Spin busy-waits until ready reports true, charging SpinCost per
// iteration and YieldCost (plus the optional onYield hook, for slow-
// path checks like fault detection) every SpinBudget empty iterations.
// It returns the number of empty (wasted) iterations. The first check
// is free: a completion that is already visible costs nothing extra,
// matching an interrupt-mode driver that finds work already done.
//
// pending is ready's side-effect-free probe: when it reports false,
// ready(p) would report false with no effect. The checks between
// iterations run in the SleepSteps step, possibly on another process's
// wake, so they call only pending; when it reports true, p resumes and
// calls ready(p) at the same event. The checks Spin makes from p itself
// (the first one, after a yield hook, after a probe reported true)
// call ready(p). A nil ready means pending is the predicate.
func (sp *Spinner) Spin(p *sim.Proc, pending func() bool, ready func(p *sim.Proc) bool, onYield func(p *sim.Proc)) int {
	r := sp.get()
	r.pending, r.hook = pending, onYield != nil
	for ready == nil && !pending() || ready != nil && !ready(p) {
		r.phase = phaseSpin
		p.SleepSteps(r.step)
		if r.yielded {
			r.yielded = false
			onYield(p)
		}
	}
	sp.spins.Inc()
	empty := r.empty
	r.pending, r.empty = nil, 0
	sp.free = append(sp.free, r)
	return empty
}

// get takes an idle loop state from the pool, building one (and its
// bound step function) only when every state is in use.
func (sp *Spinner) get() *spinRun {
	if n := len(sp.free); n > 0 {
		r := sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
		return r
	}
	r := &spinRun{sp: sp}
	r.step = r.next
	return r
}

// spinPhase is where a spin loop resumes after its last sleep.
type spinPhase uint8

const (
	phaseCheck        spinPhase = iota // probe the completion
	phaseSpin                          // start an empty iteration
	phaseSpinPreempt                   // the iteration's preemption draw
	phaseSpinDone                      // the yield slot, when one is due
	phaseYieldPreempt                  // the yield slot's preemption draw
	phaseYieldDone                     // hand the yield hook to the spinner
)

// spinRun is the state of one Spin call, advanced by next: the loop
//
//	for !ready(p) {
//		empty++ and its counters; CPUWork(p, SpinCost)
//		if empty%SpinBudget == 0 {
//			its counters; CPUWork(p, YieldCost); onYield(p)
//		}
//	}
//
// cut at each sleep, with CPUWork split into its two draws.
type spinRun struct {
	sp      *Spinner
	step    func() sim.Duration // next, bound once
	pending func() bool
	hook    bool // Spin has an onYield hook
	yielded bool // next stopped for the hook
	phase   spinPhase
	empty   int
}

// next runs the loop up to its next sleep and returns the sleep's
// length, or 0 when the spinning process must run: pending reported
// true, or a yield hook is due (yielded).
func (r *spinRun) next() sim.Duration {
	sp := r.sp
	h := sp.host
	for {
		switch r.phase {
		case phaseCheck:
			if r.pending() {
				return 0
			}
			r.phase = phaseSpin
		case phaseSpin:
			r.empty++
			sp.spins.Inc()
			sp.wasted.Inc()
			sp.burnNs.Add(int64(SpinCost / sim.Nanosecond))
			r.phase = phaseSpinPreempt
			if d := h.jitter(SpinCost); d != 0 {
				return d
			}
		case phaseSpinPreempt:
			r.phase = phaseSpinDone
			if d := h.preemption(SpinCost); d != 0 {
				return d
			}
		case phaseSpinDone:
			if r.empty%SpinBudget != 0 {
				r.phase = phaseCheck
				continue
			}
			sp.yields.Inc()
			sp.burnNs.Add(int64(YieldCost / sim.Nanosecond))
			r.phase = phaseYieldPreempt
			if d := h.jitter(YieldCost); d != 0 {
				return d
			}
		case phaseYieldPreempt:
			r.phase = phaseYieldDone
			if d := h.preemption(YieldCost); d != 0 {
				return d
			}
		case phaseYieldDone:
			r.phase = phaseCheck
			if r.hook {
				r.yielded = true
				return 0
			}
		}
	}
}
