//fvlint:hotpath
package sim

import (
	"fmt"
	"math"
	"sort"

	"fpgavirtio/internal/mem"
)

// event is one scheduled callback. Events are recycled through a
// free-list (see alloc/release): the steady-state per-packet path
// schedules thousands of events per simulated round trip, and heap
// allocating each one dominated the profile. An event either carries a
// closure (fn) or resumes a process directly (proc) — the latter avoids
// allocating a wrapper closure for the extremely common "wake this
// process" case.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	name string
	fn   func()
	proc *Proc  // when non-nil, the event resumes this process
	pgen uint32 // proc spawn generation captured at schedule time
	dead bool
	gen  uint32 // recycle generation, guards stale EventIDs
}

// eventLess is the queue's total order: time, then schedule sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxTime is the dispatch limit of Run and Step: no deadline.
const maxTime = Time(math.MaxInt64)

// EventID identifies a scheduled event so it can be cancelled. The
// generation snapshot makes Cancel safe against event recycling: an ID
// held past the event's execution refers to a retired generation and
// cancels nothing.
type EventID struct {
	s   *Sim
	e   *event
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (id EventID) Cancel() {
	if id.e != nil && id.e.gen == id.gen && !id.e.dead {
		id.e.dead = true
		id.s.stats.Cancelled++
		id.s.live--
	}
}

// Tracer receives a record for every event executed when tracing is
// enabled. It exists for debugging and for latency-attribution tools.
type Tracer interface {
	Event(at Time, name string)
}

// QueueStats are the event loop's introspection counters, accumulated
// over the Sim's whole life. They are plain integers bumped on the hot
// path (no instrument indirection); sessions publish them into the
// telemetry registry as sim.events.* / sim.queue.* after each run.
// All four are implementation-independent — the calendar queue and the
// simrefqueue reference shim report identical values for the same
// schedule, which the replay fingerprint golden relies on.
type QueueStats struct {
	Scheduled int64 // events ever pushed (At/After/ResumeAfter/Go)
	Fired     int64 // live events popped and executed
	Cancelled int64 // events killed by EventID.Cancel before firing
	DepthMax  int64 // high-water mark of live queued events
}

// Sim is a discrete-event scheduler. It is not safe for concurrent use;
// all model code runs under a strict control hand-off: exactly one of
// the goroutine that called Run/Step and the process coroutines runs
// at any instant. Distinct Sim instances are fully independent and may
// run on concurrent goroutines — the parallel sweep engine relies on
// this isolation.
type Sim struct {
	now      Time
	q        equeue
	seq      uint64
	live     int64 // queued, not-cancelled events
	stopped  bool
	deadline Time // dispatch limit (RunUntil); maxTime under Run/Step
	// chained enables the run-to-completion fast path: inside Run and
	// RunUntil, a parking process drains the event queue from its own
	// coroutine — callbacks run inline, consecutive wakes of the same
	// process coalesce to straight-line execution, and a wake of
	// another process goes through handoff to the trampoline without
	// returning to the scheduler loop. Under Step (and before Run is
	// entered) it is false and every process yields straight back,
	// which is what gives Step its one-event granularity.
	chained  bool
	handoff  *Proc // process a yielding coroutine passes control to
	tracer   Tracer
	spans    SpanSink
	flight   FlightSink
	procs    int     // live (not yet finished) processes
	parked   []*Proc // processes currently suspended (unordered)
	free     []*event
	procPool []*Proc // finished processes whose coroutines idle for reuse
	stats    QueueStats
	arena    *mem.Arena         // backs interned trace/park name strings
	names    map[nameKey]string // (label, sub) -> interned "label+sub"
}

type nameKey struct{ label, sub string }

// New returns an empty simulation positioned at time zero.
func New() *Sim {
	s := &Sim{
		arena: mem.NewArena(0),
		names: make(map[nameKey]string),
	}
	s.q.init()
	return s
}

// Now reports the current simulation time.
func (s *Sim) Now() Time { return s.now }

// SetTracer installs t as the execution tracer (nil disables tracing).
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

// Traced reports whether an execution tracer is installed. Hot paths
// use it to skip composing event-name strings that only a tracer reads.
func (s *Sim) Traced() bool { return s.tracer != nil }

// Stats returns the event loop's lifetime counters.
func (s *Sim) Stats() QueueStats { return s.stats }

// internName returns the interned concatenation label+sub. Composed
// names (a proc wake's "wake:app", a trigger's park reason) have tiny
// cardinality but used to be rebuilt — one heap allocation each — on
// every traced event. The intern table builds each unique composition
// once, in the Sim's arena, and the steady state is a map hit with
// zero allocations even with a tracer installed.
func (s *Sim) internName(label, sub string) string {
	k := nameKey{label, sub}
	if n, ok := s.names[k]; ok {
		return n
	}
	n := s.arena.String(label, sub)
	s.names[k] = n
	return n
}

func (s *Sim) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &event{}
}

func (s *Sim) release(e *event) {
	e.name = ""
	e.fn = nil
	e.proc = nil
	e.dead = false
	e.gen++
	s.free = append(s.free, e)
}

// enqueue pushes e and maintains the introspection counters.
func (s *Sim) enqueue(e *event) {
	s.stats.Scheduled++
	s.live++
	if s.live > s.stats.DepthMax {
		s.stats.DepthMax = s.live
	}
	s.q.push(e, s.now)
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would violate causality.
func (s *Sim) At(at Time, name string, fn func()) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", name, at, s.now))
	}
	e := s.alloc()
	e.at, e.seq, e.name, e.fn = at, s.seq, name, fn
	s.seq++
	s.enqueue(e)
	return EventID{s, e, e.gen}
}

// After schedules fn to run d from now. Negative d panics.
func (s *Sim) After(d Duration, name string, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return s.At(s.now.Add(d), name, fn)
}

// atProc schedules a resume of p at absolute time at without allocating
// a wrapper closure. label names the event kind ("wake", "start", ...);
// the tracer composes label:procname lazily (and interned), so untraced
// runs never build the string.
func (s *Sim) atProc(at Time, label string, p *Proc) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, at, s.now))
	}
	e := s.alloc()
	e.at, e.seq, e.name, e.proc, e.pgen = at, s.seq, label, p, p.gen
	s.seq++
	s.enqueue(e)
	return EventID{s, e, e.gen}
}

// ResumeAfter schedules p to be resumed d from now. It is the
// allocation-free dual of Proc.Park: higher layers (wait queues,
// completion paths) park a process and arrange its wake-up through
// ResumeAfter instead of allocating a closure per wake. Exactly one
// resume must be outstanding per parked process.
func (s *Sim) ResumeAfter(d Duration, label string, p *Proc) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %v", d, label))
	}
	return s.atProc(s.now.Add(d), label, p)
}

// popLive removes and returns the next live event with at <= limit,
// releasing cancelled events along the way. Returns nil when nothing
// runnable remains within limit.
func (s *Sim) popLive(limit Time) *event {
	for {
		e := s.q.pop(s.now, limit)
		if e == nil {
			return nil
		}
		if e.dead {
			s.release(e)
			continue
		}
		s.live--
		s.stats.Fired++
		return e
	}
}

// take advances the clock to e, traces it, and executes it if it is a
// callback. For a process event it returns the process to hand control
// to (after the stale-generation check); for callbacks it returns nil.
// e is released before execution, so the callback may immediately
// recycle it.
func (s *Sim) take(e *event) *Proc {
	s.now = e.at
	if s.tracer != nil {
		if e.proc != nil {
			s.tracer.Event(e.at, s.internName(e.name+":", e.proc.name))
		} else {
			s.tracer.Event(e.at, e.name)
		}
	}
	fn, p, pgen := e.fn, e.proc, e.pgen
	s.release(e)
	if p == nil {
		fn()
		return nil
	}
	if p.gen != pgen {
		panic(fmt.Sprintf("sim: stale resume of recycled process %q", p.name))
	}
	return p
}

// Step executes the next pending event, advancing time to it.
// It reports whether an event was executed. Step always returns after
// exactly one event: the chained fast path stays off, so a resumed
// process yields control back to the scheduler as soon as it parks.
func (s *Sim) Step() bool {
	s.deadline = maxTime
	e := s.popLive(maxTime)
	if e == nil {
		return false
	}
	if p := s.take(e); p != nil {
		s.dispatch(p)
	}
	return true
}

// runLoop is the scheduler side of the chained dispatch regime: it
// pops and fires events until the queue drains (within deadline) or
// Stop is called. Firing a process event switches into that process's
// coroutine; from there processes chain through the queue themselves
// (see Proc.chainNext) and control only returns here when nothing more
// is runnable from a process context. Callback-only stretches run
// inline in this loop with no switches at all.
func (s *Sim) runLoop() {
	for !s.stopped {
		e := s.popLive(s.deadline)
		if e == nil {
			return
		}
		if p := s.take(e); p != nil {
			s.dispatch(p)
		}
	}
}

// Run executes events until the queue drains or Stop is called.
// It returns an error if processes remain parked with no pending events
// (a deadlock in the modeled system).
func (s *Sim) Run() error {
	s.stopped = false
	s.deadline = maxTime
	s.chained = true
	s.runLoop()
	s.chained = false
	if !s.stopped && len(s.parked) > 0 {
		return fmt.Errorf("sim: deadlock at %v: %d process(es) parked: %v", s.now, len(s.parked), s.parkedNames())
	}
	return nil
}

// RunUntil executes events with timestamps <= deadline. Events beyond
// the deadline remain queued; time is advanced to deadline if nothing
// ran at it.
func (s *Sim) RunUntil(deadline Time) {
	s.stopped = false
	s.deadline = deadline
	s.chained = true
	s.runLoop()
	s.chained = false
	if s.now < deadline {
		// A Stop may have left same-timestamp events in the fast lane;
		// migrate them before the clock jumps so queue invariants hold.
		s.q.flushCurr()
		s.now = deadline
	}
}

// Stop halts Run after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Pending reports the number of live queued events.
func (s *Sim) Pending() int { return int(s.live) }

func (s *Sim) parkedNames() []string {
	var names []string
	for _, p := range s.parked {
		names = append(names, p.name+": "+p.why)
	}
	// The deadlock error this feeds must read identically on every run
	// of the same seed; parking order must not leak into it.
	sort.Strings(names)
	return names
}
