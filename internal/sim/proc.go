//go:build go1.23

//fvlint:hotpath
package sim

import (
	"fmt"
	"iter" // go1.23, hence the build line; go.mod stays at go 1.22
)

// Proc is a simulated sequential process (a software thread, a hardware
// finite-state machine, ...). A Proc body runs as a runtime coroutine
// (iter.Pull) under strict hand-off: exactly one coroutine — or the
// goroutine that called Run/Step — runs at any instant, so execution is
// fully deterministic.
//
// Inside the process function, the Proc methods Sleep, Wait and Park
// block in *simulated* time by yielding back to the scheduler.
//
// Under Run/RunUntil a parking or finishing process keeps dispatching:
// it drains the event queue itself (see chainNext). Callback events
// execute inline, a wake of the same process coalesces into
// straight-line execution with zero switches, and a wake of a different
// process costs two coroutine switches — out to the trampoline in
// Sim.dispatch and into the woken process. The event execution order is
// exactly the (at, seq) order either way; only which coroutine drives
// the dispatch changes, which no simulated observable depends on.
//
// A panic or runtime.Goexit in a process body (a bus error, an
// unhandled IRQ, t.FailNow in a test process) travels through the
// coroutine switch to the caller of Run/RunUntil/Step with its original
// value. The simulation is unusable afterwards.
//
// Finished processes are pooled: the coroutine is reused by the next
// Go/GoAfter, so per-operation process spawns (one per ping, one per
// interrupt) do not allocate in steady state. The spawn generation
// counter catches the one hazard pooling introduces — a stale wake
// event resuming a recycled process — by panicking instead of silently
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
	s.procs++
	s.ResumeAfter(d, "start", p)
	return p
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
		s.procs--
		p.gen++
		s.procPool = append(s.procPool, p)
		// A self-wake here means a callback run by the drain respawned
		// this process (LIFO pool reuse) and its start event fired.
		p.suspend()
	}
}

// suspend gives up control until an event resumes p. Under Run and
// RunUntil it first drains the queue from this coroutine (chainNext)
// and returns at once on a self-wake; otherwise it yields to the
// trampoline in Sim.dispatch.
func (p *Proc) suspend() {
	if p.sim.chained && p.chainNext() {
		return
	}
	p.yield(struct{}{})
}

// chainNext continues the dispatch loop from this process's coroutine
// after it parks or finishes. It pops and fires events until one of:
//
//   - the next event resumes this very process (the coalesced self-wake
//     fast path): report true, the caller keeps running with zero
//     switches;
//   - the next event resumes another process: name it in s.handoff for
//     the trampoline to switch to, and report false;
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

// dispatch is the trampoline: it switches into p and then into every
// process a yielding one names as its successor, until one yields with
// none. Under Step no process names a successor, so it runs p once.
func (s *Sim) dispatch(p *Proc) {
	for p != nil {
		p.next()
		p, s.handoff = s.handoff, nil
	}
}

// park suspends the process until some event resumes it. why should be
// a precomputed string: it is only read if the simulation deadlocks.
// The process registers itself in the parked set *before* giving up
// control, so deadlock detection can never miss it.
func (p *Proc) park(why string) {
	s := p.sim
	p.why = why
	p.parkIdx = len(s.parked)
	s.parked = append(s.parked, p)
	p.suspend()
	// Swap-remove from the parked set.
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

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: negative sleep %v", p.name, d))
	}
	if d == 0 {
		return
	}
	p.sim.atProc(p.sim.now.Add(d), "wake", p)
	p.park("sleeping")
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
	return &Trigger{sim: s, name: name, parkName: s.internName("trigger:", name)}
}

// Fired reports whether the trigger has fired.
func (t *Trigger) Fired() bool { return t.fired }

// Wait suspends p until the trigger fires. If it already fired, Wait
// returns immediately without yielding.
func (t *Trigger) Wait(p *Proc) {
	if t.fired {
		return
	}
	t.waiters = append(t.waiters, p)
	p.park(t.parkName)
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
	return &Cond{sim: s, name: name, parkName: s.internName("wait:", name)}
}

// Wait suspends p until Broadcast or Signal. Spurious wakeups do not
// occur, but callers that wait on shared state should still re-check
// their predicate in a loop, as several waiters may be released at once.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park(c.parkName)
}

// Signal wakes the longest-waiting process, if any.
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
