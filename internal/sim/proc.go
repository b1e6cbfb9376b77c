//go:build go1.23

//fvlint:hotpath
package sim

import (
	"fmt"
	"iter" // go1.23, hence the build line; go.mod stays at go 1.22

	"fpgavirtio/internal/fvassert"
)

// Proc is a simulated sequential process (a software thread, a hardware
// finite-state machine, ...). A Proc body runs as a runtime coroutine
// (iter.Pull) under strict hand-off: exactly one coroutine — or the
// goroutine that called Run/Step — runs at any instant, so execution is
// fully deterministic.
//
// Inside the process function, the Proc methods Sleep, Wait and Park
// block in *simulated* time by giving up control until a wake event.
//
// Under Run/RunUntil a parking or finishing process keeps dispatching:
// it drains the event queue itself (see chainNext). Callback events
// execute inline and a wake of the same process coalesces into
// straight-line execution with zero switches. The processes that are
// running or suspended inside a switch into another form the switch
// stack, bottom first: the one the scheduler switched into, then each
// process switched into by the one below it. A parking process whose
// drain wakes a process not on the stack switches into it from its own
// coroutine, one switch; a wake of a process on the stack unwinds to
// it, each process above it yielding to the one below, and a parking
// process with nothing runnable unwinds to the scheduler. Two processes
// that wake each other above a third therefore pay one switch per wake.
// The event execution order is exactly the (at, seq) order either way;
// only which coroutine drives the dispatch changes, which no simulated
// observable depends on.
//
// A panic or runtime.Goexit in a process body (a bus error, an
// unhandled IRQ, t.FailNow in a test process) travels through every
// coroutine switch on the stack to the caller of Run/RunUntil/Step with
// its original value. The simulation is unusable afterwards.
//
// Finished processes are pooled: the coroutine is reused by the next
// Go/GoAfter, so per-operation process spawns (one per ping) do not
// allocate in steady state. A step process (GoSteps) has no coroutine
// at all and is pooled the same way. The spawn generation counter
// catches the one hazard pooling introduces — a stale wake event
// resuming a recycled process — by panicking instead of silently
// corrupting the schedule.
type Proc struct {
	sim     *Sim
	name    string
	fn      func(p *Proc)
	next    func() (struct{}, bool) // switches into the coroutine
	yield   func(struct{}) bool     // switches out of it, set by loop
	gen     uint32                  // spawn generation; bumped when returned to the pool
	why     string                  // park reason, read by deadlock detection
	parkIdx int                     // index in sim.parked while parked
	step    func() Duration         // the running SleepSteps continuation or step process, or nil
	onStack bool                    // on the switch stack, see suspend
	armed   bool                    // a resume was arranged during the running step (fvinvariants builds)
}

// Go spawns a process that starts executing at the current simulation
// time (after already-queued events at this timestamp).
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	return s.GoAfter(0, name, fn)
}

// GoAfter spawns a process that starts after delay d.
func (s *Sim) GoAfter(d Duration, name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(s.procPool); n > 0 {
		p = s.procPool[n-1]
		s.procPool[n-1] = nil
		s.procPool = s.procPool[:n-1]
		p.name = name
	} else {
		p = &Proc{sim: s, name: name}
		p.next, _ = iter.Pull(p.loop)
	}
	p.fn = fn
	s.ResumeAfter(d, "start", p)
	return p
}

// GoSteps spawns a step process: a process that is only a step
// machine and never gets a coroutine. step first runs d from now, on
// whichever context fires the start event, and then exactly as under
// SleepSteps: on each wake, it sleeps for each duration it returns and
// waits whenever it returns Blocked, under the same rules (it must not
// block, and it may use the returned process only to Await a trigger or
// a Cond). When step returns 0 the process ends and goes back to the
// pool of step processes, so per-operation step processes (one per
// interrupt) do not allocate in steady state. From its spawn to its
// end the process counts as parked, and a deadlock report names it
// with the trigger or Cond it awaits, or as sleeping.
//
// A step process costs no coroutine switch and holds no goroutine: an
// interrupt handler or a timer that only draws, sleeps, awaits and
// wakes runs entirely on the events that drive it.
func (s *Sim) GoSteps(d Duration, name string, step func() Duration) *Proc {
	var p *Proc
	if n := len(s.stepPool); n > 0 {
		p = s.stepPool[n-1]
		s.stepPool[n-1] = nil
		s.stepPool = s.stepPool[:n-1]
		p.name = name
	} else {
		p = &Proc{sim: s, name: name}
	}
	p.step, p.why = step, "sleeping"
	p.parkIdx = len(s.parked)
	s.parked = append(s.parked, p)
	s.ResumeAfter(d, "start", p)
	return p
}

// endSteps ends a step process whose step returned 0 and pools it.
func (s *Sim) endSteps(p *Proc) {
	s.unpark(p)
	p.step = nil
	p.gen++
	s.stepPool = append(s.stepPool, p)
}

// loop is the pooled coroutine body: it runs one spawned body per
// resume, returns the process to the pool and suspends until the next
// spawn starts it again.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	s := p.sim
	for {
		fn := p.fn
		p.fn = nil
		fn(p)
		p.gen++
		s.procPool = append(s.procPool, p)
		// A self-wake here means a callback run by the drain respawned
		// this process (LIFO pool reuse) and its start event fired.
		p.suspend()
	}
}

// suspend gives up control until an event resumes p. Under Run and
// RunUntil it first drains the queue from this coroutine (chainNext)
// and returns at once on a self-wake. When the drain names a process
// that is not on the switch stack, p switches into it and stays on the
// stack; once that switch returns, p resumes if s.handoff names it and
// otherwise keeps unwinding. When the drain names a process on the
// stack, below p, or nothing, p yields and leaves s.handoff for the
// processes below.
func (p *Proc) suspend() {
	s := p.sim
	if s.chained && p.chainNext() {
		return
	}
	if q := s.handoff; q != nil && !q.onStack {
		s.handoff = nil
		s.switchTo(q)
		if s.handoff == p {
			s.handoff = nil
			return
		}
	}
	p.yield(struct{}{})
}

// assertUnwound fails when control is back at the scheduler with a
// handoff pending or a parked or pooled process still on the switch
// stack. Only fvinvariants builds call it.
func (s *Sim) assertUnwound() {
	if s.handoff != nil {
		fvassert.Failf("sim: control back at the scheduler with a handoff to %s pending", s.handoff.name)
	}
	for _, ps := range [2][]*Proc{s.parked, s.procPool} {
		for _, p := range ps {
			if p.onStack {
				fvassert.Failf("sim: control back at the scheduler with %s on the switch stack", p.name)
			}
		}
	}
}

// chainNext continues the dispatch loop from this process's coroutine
// after it parks or finishes. It pops and fires events until one of:
//
//   - the next event resumes this very process (the coalesced self-wake
//     fast path): report true, the caller keeps running with zero
//     switches;
//   - the next event resumes another process: name it in s.handoff for
//     suspend to switch or unwind to, and report false;
//   - nothing runnable remains (or Stop was called): report false with
//     no handoff, so control returns to the scheduler loop.
//
// Callback events execute inline in the loop.
func (p *Proc) chainNext() bool {
	s := p.sim
	for !s.stopped {
		e := s.popLive(s.deadline)
		if e == nil {
			break
		}
		if q := s.take(e); q != nil {
			if q != p {
				s.handoff = q
			}
			return q == p
		}
	}
	return false
}

// park suspends the process until some event resumes it. why should be
// a precomputed string: it is only read if the simulation deadlocks.
// The process registers itself in the parked set *before* giving up
// control, so deadlock detection can never miss it.
func (p *Proc) park(why string) {
	s := p.sim
	if fvassert.Enabled && s.stepping != nil {
		fvassert.Failf("sim: %s parks (%s) inside the SleepSteps step of %s", p.name, why, s.stepping.name)
	}
	if p.next == nil {
		panic(fmt.Sprintf("sim: step process %s cannot block (%s)", p.name, why))
	}
	p.why = why
	p.parkIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.suspend()
	s.unpark(p)
}

// unpark swap-removes p from the parked set.
func (s *Sim) unpark(p *Proc) {
	n := len(s.parked) - 1
	last := s.parked[n]
	s.parked[p.parkIdx] = last
	last.parkIdx = p.parkIdx
	s.parked[n] = nil
	s.parked = s.parked[:n]
}

// Park suspends the process until an event resumes it; pair it with
// Sim.ResumeAfter. Exactly one resume must be scheduled per Park — the
// strict hand-off model has no spurious wakeups. why is reported when
// deadlock detection trips.
func (p *Proc) Park(why string) { p.park(why) }

// Name reports the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Sim returns the scheduler this process runs under.
func (p *Proc) Sim() *Sim { return p.sim }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.sim.now }

// Sleep suspends the process for d of simulated time. Under Run and
// RunUntil, when no queued event (live or cancelled) is due by the wake
// time and the wake is within the deadline, the wake is the next event
// the drain would fire: Sleep then advances the clock in place (see
// Sim.runAhead) instead of queueing, parking and popping its own wake.
func (p *Proc) Sleep(d Duration) {
	if fvassert.Enabled && p.sim.stepping != nil {
		fvassert.Failf("sim: %s sleeps inside the SleepSteps step of %s", p.name, p.sim.stepping.name)
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	if d == 0 {
		return
	}
	s := p.sim
	at := s.now.Add(d)
	if s.canRunAhead(at) {
		s.runAhead(at, p)
		return
	}
	s.atProc(at, "wake", p)
	p.park("sleeping")
}

// Blocked is the SleepSteps step result of a step that has arranged
// its own resume, as Trigger.Await and Cond.Await do: no wake is
// queued and the step runs again on the event that resumes the
// process.
const Blocked = Duration(-1 << 63)

// SleepSteps sleeps for each duration step returns until it returns 0,
// and waits on a trigger or a Cond whenever it returns Blocked. It
// means exactly
//
//	for d := step(); d != 0; d = step() {
//		if d == Blocked {
//			p.Park(why) // the trigger or Cond step Awaited resumes p
//		} else {
//			p.Sleep(d)
//		}
//	}
//
// with one difference: after a wake that went through the queue, step
// runs on whichever context fires that wake — the scheduler loop or
// another process's coroutine, where a callback would run — and p's
// coroutine is switched into only once step returns 0. A busy loop
// whose iterations only draw noise, bump counters and sleep, a data
// mover that waits on one bus completion after another, or an engine
// that never returns 0 and waits on its kick between runs, then costs
// no coroutine switches while other processes run between its wakes.
// Every wake keeps its (at, seq), every step call runs at the same
// event in the same order as in the loop, and run-ahead applies to the
// continuation's wakes under the same rule as Sleep's.
//
// step must not block: it must not Sleep, Park or Wait on any process
// (p's coroutine may be suspended while it runs), and it may use p only
// to Await a trigger or a Cond. It may read and write plain state and
// schedule events. Builds with -tags fvinvariants fail a step that
// blocks, naming both processes, and one that returns Blocked without
// having arranged a resume of p.
func (p *Proc) SleepSteps(step func() Duration) {
	s := p.sim
	if fvassert.Enabled && s.stepping != nil {
		fvassert.Failf("sim: %s sleeps inside the SleepSteps step of %s", p.name, s.stepping.name)
	}
	p.step, p.why = step, "sleeping"
	if !s.runSteps(p) {
		p.park(p.why)
	}
	p.step = nil
}

// runSteps runs p's SleepSteps step until it returns 0, reporting
// true, or until it blocks: it then reports false, after queueing the
// wake, as Sleep does, when the step's sleep cannot run ahead. A
// Blocked step's Await has named the trigger or Cond in p.why. A later
// queued sleep leaves that name in place, which no report can show:
// only a deadlock report reads p.why, and then no wake of p is queued.
func (s *Sim) runSteps(p *Proc) bool {
	for {
		var d Duration
		if fvassert.Enabled {
			s.stepping = p
			p.armed = false
			d = p.step()
			s.stepping = nil
			if d == Blocked && !p.armed {
				fvassert.Failf("sim: the SleepSteps step of %s returned Blocked with no resume arranged", p.name)
			}
		} else {
			d = p.step()
		}
		if d == 0 {
			return true
		}
		if d == Blocked {
			return false
		}
		if d < 0 {
			panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
		}
		at := s.now.Add(d)
		if s.canRunAhead(at) {
			s.runAhead(at, p)
			continue
		}
		s.atProc(at, "wake", p)
		return false
	}
}

// Trigger is a one-shot event: processes that Wait before Fire are
// suspended until it fires; waits after it has fired return immediately.
// It models completions (a DMA finishing, an interrupt being serviced).
// A fired trigger can be re-armed with Reset, so long-lived operations
// reuse one trigger instead of allocating per completion.
type Trigger struct {
	sim      *Sim
	name     string
	parkName string
	fired    bool
	waiters  []*Proc
}

// NewTrigger returns an unfired trigger bound to s.
func NewTrigger(s *Sim, name string) *Trigger {
	return &Trigger{sim: s, name: name, parkName: s.internName("trigger", name)}
}

// Wait suspends p until the trigger fires. If it already fired, Wait
// returns immediately without yielding.
func (t *Trigger) Wait(p *Proc) {
	if t.Await(p) {
		p.park(t.parkName)
	}
}

// Await is Wait without the park, for a SleepSteps step: it registers
// p to be resumed when t fires and reports true, and the step then
// returns Blocked. If t already fired it registers nothing and reports
// false.
func (t *Trigger) Await(p *Proc) bool {
	if t.fired {
		return false
	}
	t.waiters = append(t.waiters, p)
	p.why = t.parkName
	if fvassert.Enabled {
		p.armed = true
	}
	return true
}

// Fire marks the trigger fired and wakes all waiters in FIFO order.
// Firing twice panics: a completion happens once.
func (t *Trigger) Fire() {
	if t.fired {
		panic("sim: trigger " + t.name + " fired twice")
	}
	t.fired = true
	for i, p := range t.waiters {
		t.sim.atProc(t.sim.now, "fire", p)
		t.waiters[i] = nil
	}
	t.waiters = t.waiters[:0]
}

// Reset re-arms a fired trigger for reuse. Resetting with waiters still
// parked panics: they would wait for a completion that already passed.
func (t *Trigger) Reset() {
	if len(t.waiters) != 0 {
		panic("sim: trigger " + t.name + " reset with parked waiters")
	}
	t.fired = false
}

// Cond is a condition variable for processes. The zero value is unusable;
// create with NewCond.
type Cond struct {
	sim      *Sim
	name     string
	parkName string
	waiters  []*Proc
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Sim, name string) *Cond {
	return &Cond{sim: s, name: name, parkName: s.internName("wait", name)}
}

// Wait suspends p until Broadcast or Signal. Spurious wakeups do not
// occur, but callers that wait on shared state should still re-check
// their predicate in a loop, as several waiters may be released at once.
func (c *Cond) Wait(p *Proc) {
	c.Await(p)
	p.park(c.parkName)
}

// Await is Wait without the park, for a SleepSteps step: it registers
// p to be resumed by the Broadcast or Signal that releases it, and the
// step then returns Blocked.
func (c *Cond) Await(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.why = c.parkName
	if fvassert.Enabled {
		p.armed = true
	}
}

// Signal wakes the longest-waiting process, if any.
//
//fvlint:ignore deadcode wake-one half of Cond; TestSleepStepsMatchesSleepLoop checks Cond.Await against Cond.Wait under both Signal and Broadcast
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.sim.atProc(c.sim.now, "signal", p)
}

// Broadcast wakes all waiting processes in FIFO order.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.sim.atProc(c.sim.now, "broadcast", p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// Waiters reports how many processes are blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }
