package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fpgavirtio/internal/fvassert"
)

// runModes are the three ways to dispatch a simulation; a process's
// panic or Goexit must reach the caller of each one.
var runModes = []struct {
	name string
	run  func(s *Sim)
}{
	{"Run", func(s *Sim) { _ = s.Run() }},
	{"RunUntil", func(s *Sim) { s.RunUntil(Time(Us(10))) }},
	{"Step", func(s *Sim) {
		for s.Step() {
		}
	}},
}

// spawnFailing starts a process that parks forever and one that calls
// fail after a Sleep, so fail runs with another process parked and a
// cross-process switch behind it.
func spawnFailing(s *Sim, fail func()) {
	c := NewCond(s, "never")
	s.Go("parked", func(p *Proc) { c.Wait(p) })
	s.Go("failing", func(p *Proc) {
		p.Sleep(Us(1))
		fail()
	})
}

type procPanic struct{ code int }

func TestProcPanicPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			want := &procPanic{code: 7}
			spawnFailing(s, func() { panic(want) })
			got := func() (r any) {
				defer func() { r = recover() }()
				d.run(s)
				return nil
			}()
			if got != want {
				t.Fatalf("%s recovered %#v, want the body's panic value %#v", d.name, got, want)
			}
		})
	}
}

// TestProcGoexitPropagates covers t.FailNow/t.Fatal inside a process
// body: runtime.Goexit there must end the goroutine that called Run,
// RunUntil or Step, not leave it blocked forever.
func TestProcGoexitPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			spawnFailing(s, runtime.Goexit)
			done := make(chan bool)
			go func() {
				returned := false
				defer func() { done <- returned }()
				d.run(s)
				returned = true
			}()
			select {
			case returned := <-done:
				if returned {
					t.Fatalf("%s returned normally after the body called runtime.Goexit", d.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked 5s after the body called runtime.Goexit", d.name)
			}
		})
	}
}

// spawnWoken starts process A and process B so that A wakes B: A
// sleeps, fires a trigger B waits on and parks. Under Run and RunUntil
// A is the process the scheduler switched into, so B's body after the
// wait runs inside A's suspend. B then calls body; nested reports
// whether it ran below A's trampoline.
func spawnWoken(s *Sim, body func(b *Proc)) (nested *bool) {
	nested = new(bool)
	t := NewTrigger(s, "wake")
	never := NewCond(s, "never")
	a := s.Go("A", func(p *Proc) {
		p.Sleep(Us(1))
		t.Fire()
		never.Wait(p)
	})
	s.Go("B", func(p *Proc) {
		t.Wait(p)
		*nested = s.tramp == a
		body(p)
	})
	return nested
}

// chainedMode reports whether a run mode chains dispatch through
// process coroutines (Run, RunUntil) rather than stepping (Step).
func chainedMode(name string) bool { return name != "Step" }

func TestNestedDispatchPanicPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			want := &procPanic{code: 9}
			nested := spawnWoken(s, func(*Proc) { panic(want) })
			got := func() (r any) {
				defer func() { r = recover() }()
				d.run(s)
				return nil
			}()
			if got != want {
				t.Fatalf("%s recovered %#v, want the body's panic value %#v", d.name, got, want)
			}
			if *nested != chainedMode(d.name) {
				t.Fatalf("%s: B ran nested below A = %v", d.name, *nested)
			}
		})
	}
}

func TestNestedDispatchGoexitPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			nested := spawnWoken(s, func(*Proc) { runtime.Goexit() })
			done := make(chan bool)
			go func() {
				returned := false
				defer func() { done <- returned }()
				d.run(s)
				returned = true
			}()
			select {
			case returned := <-done:
				if returned {
					t.Fatalf("%s returned normally after the body called runtime.Goexit", d.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still blocked 5s after the body called runtime.Goexit", d.name)
			}
			if *nested != chainedMode(d.name) {
				t.Fatalf("%s: B ran nested below A = %v", d.name, *nested)
			}
		})
	}
}

// TestNestedDispatchStop: a Stop inside a process running below
// another's trampoline returns control to Run at the Stop's time, and
// the next Run resumes where it left off.
func TestNestedDispatchStop(t *testing.T) {
	s := New()
	done := false
	var stopAt Time
	nested := spawnWoken(s, func(p *Proc) {
		stopAt = s.Now()
		s.Stop()
		p.Sleep(Us(1))
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !*nested {
		t.Fatal("B did not run below A's trampoline")
	}
	if done || s.Now() != stopAt || s.Pending() != 1 {
		t.Fatalf("after Stop: done=%v now=%v (Stop at %v) pending=%d, want false, the Stop's time, 1",
			done, s.Now(), stopAt, s.Pending())
	}
	err := s.Run()
	if !done || s.Now() != stopAt.Add(Us(1)) {
		t.Fatalf("second Run: done=%v now=%v, want true, %v", done, s.Now(), stopAt.Add(Us(1)))
	}
	// A still waits on "never": the second Run reports it.
	if err == nil || !strings.Contains(err.Error(), "A: wait:never") {
		t.Fatalf("second Run error %v, want a deadlock naming A", err)
	}
}

// TestNestedDispatchDeadlock: deadlock detection names every parked
// process, including the trampoline process and the one that parked
// below it.
func TestNestedDispatchDeadlock(t *testing.T) {
	s := New()
	c := NewCond(s, "idle")
	nested := spawnWoken(s, func(p *Proc) { c.Wait(p) })
	s.Go("C", func(p *Proc) { c.Wait(p) })
	err := s.Run()
	if !*nested {
		t.Fatal("B did not run below A's trampoline")
	}
	want := "3 process(es) parked: [A: wait:never B: wait:idle C: wait:idle]"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error %v, want one containing %q", err, want)
	}
}

// TestNestedDispatchStepBlocks: built with -tags fvinvariants, a
// SleepSteps step that blocks any process — here the device process
// whose coroutine runs the step as a continuation — fails with a
// message naming the blocking process and the one whose step it is.
func TestNestedDispatchStepBlocks(t *testing.T) {
	if !fvassert.Enabled {
		t.Skip("the check is compiled in only with -tags fvinvariants")
	}
	blocks := []struct {
		name  string
		block func(q *Proc)
	}{
		{"Sleep", func(q *Proc) { q.Sleep(Ns(1)) }},
		{"Park", func(q *Proc) { q.Park("blocked") }},
		{"Wait", func(q *Proc) { NewCond(q.Sim(), "blocked").Wait(q) }},
		{"SleepSteps", func(q *Proc) { q.SleepSteps(func() Duration { return 0 }) }},
	}
	for _, b := range blocks {
		for _, d := range runModes {
			t.Run(b.name+"/"+d.name, func(t *testing.T) {
				s := New()
				dev := s.Go("device", func(p *Proc) {
					for i := 0; i < 8; i++ {
						p.Sleep(Ns(3))
					}
				})
				s.Go("spinner", func(p *Proc) {
					calls := 0
					p.SleepSteps(func() Duration {
						if calls++; calls == 3 {
							b.block(dev)
						}
						return Ns(2)
					})
				})
				got := func() (r any) {
					defer func() { r = recover() }()
					d.run(s)
					return nil
				}()
				msg, _ := got.(string)
				if !strings.HasPrefix(msg, "fvinvariant: ") || !strings.Contains(msg, "device") || !strings.Contains(msg, "spinner") {
					t.Fatalf("%s recovered %#v, want an fvinvariant failure naming device and spinner", d.name, got)
				}
			})
		}
	}
}

// TestNestedDispatchDepth runs randomized process programs under Run,
// RunUntil slices and Stops, and checks through progRun.observe that no
// process ever runs more than one level below the scheduler. Built with
// -tags fvinvariants, Proc.suspend asserts the same bound at every
// trampoline switch.
func TestNestedDispatchDepth(t *testing.T) {
	nestedRan := 0
	for seed := int64(1); seed <= 60; seed++ {
		for _, until := range []bool{false, true} {
			s := New()
			r := &progRun{stops: !until}
			for i, prog := range genPrograms(seed, 2+int(seed%4), 40) {
				s.GoAfter(Duration(i)*Nanosecond, fmt.Sprintf("p%d", i), func(p *Proc) { runProgram(p, prog, r) })
			}
			for s.Pending() > 0 {
				if until {
					s.RunUntil(s.Now().Add(Ns(53)))
				} else if err := s.Run(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if s.tramp != nil || s.handoff != nil {
					t.Fatalf("seed %d: control back at the scheduler with tramp %v, handoff %v", seed, s.tramp, s.handoff)
				}
			}
			if r.depthErr != nil {
				t.Fatalf("seed %d (RunUntil %v): %v", seed, until, r.depthErr)
			}
			nestedRan += r.nestedRan
		}
	}
	if nestedRan == 0 {
		t.Fatal("no process ran below a trampoline; the test exercises nothing")
	}
}

// progOp is one step of a randomized process program.
type progOp struct {
	kind  int        // see runProgram
	d     Duration   // the step's delay
	d2    Duration   // a second delay, for steps that need two
	steps []Duration // kind 8's sleeps, see withStepOps
}

// genPrograms draws a process program per process from seed. The
// programs are fixed before any run, so every dispatch mode executes
// the same ones.
func genPrograms(seed int64, procs, steps int) [][]progOp {
	rng := rand.New(rand.NewSource(seed))
	delay := func() Duration {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1: // beyond the calendar queue's 32 µs window: the far tier
			return Us(40) + Duration(rng.Intn(20000))*Nanosecond
		default:
			return Duration(rng.Intn(60)+1) * Nanosecond
		}
	}
	progs := make([][]progOp, procs)
	for i := range progs {
		for j := 0; j < steps; j++ {
			progs[i] = append(progs[i], progOp{kind: rng.Intn(8), d: delay(), d2: delay()})
		}
	}
	return progs
}

// withStepOps turns about a quarter of each program's steps into
// kind 8: a run of 1 to 6 sleeps of 1 to 60 ns, the same range as the
// programs' own short delays, so the sleeps' wakes collide with the
// peers' wakes and callbacks. Its own source keeps genPrograms' draws,
// and so the programs of the other tests, unchanged.
func withStepOps(progs [][]progOp, seed int64) [][]progOp {
	rng := rand.New(rand.NewSource(-seed))
	out := make([][]progOp, len(progs))
	for i, prog := range progs {
		out[i] = slices.Clone(prog)
		for j := range out[i] {
			if rng.Intn(4) != 0 {
				continue
			}
			op := progOp{kind: 8}
			for k := rng.Intn(6); k >= 0; k-- {
				op.steps = append(op.steps, Duration(rng.Intn(60)+1)*Nanosecond)
			}
			out[i][j] = op
		}
	}
	return out
}

// progRun is the shared state of one run of a set of programs.
type progRun struct {
	stops    bool   // whether step kind 7 calls Stop
	steps    bool   // whether step kind 8 calls SleepSteps or loops over Sleep
	stepAt   []Time // clock at every kind-8 step call
	stopAt   Time   // clock at the latest Stop, -1 when none since Run began
	eligible int    // Sleeps that could skip the queue

	// Trampoline bookkeeping, see observe.
	nested    map[*Proc]bool // whether each process last ran nested
	nestedRan int            // observations made inside a trampoline
	depthErr  error          // first nesting violation observed
}

// observe records whether p runs nested below a trampoline process and
// checks the nesting bound. Programs observe before every step that
// may park and before finishing, so a process's last observation tells
// whether it was nested when it last gave up control. A running process
// is never the registered trampoline, and a trampoline must itself run
// directly below the scheduler: one that was nested when it parked
// would put the running process two levels down.
func (r *progRun) observe(p *Proc) {
	t := p.sim.tramp
	if r.nested == nil {
		r.nested = map[*Proc]bool{}
	}
	r.nested[p] = t != nil
	if t == nil {
		return
	}
	r.nestedRan++
	if r.depthErr == nil && (t == p || r.nested[t]) {
		r.depthErr = fmt.Errorf("%s runs below trampoline %s, which runs nested itself or is %s", p.name, t.name, p.name)
	}
}

// runProgram executes one process program. Each step kind exercises a
// way an event reaches the queue: a Sleep, a callback (which may nest
// another), a cancelled callback, a wake from a child process firing a
// trigger, a resume scheduled by a callback, a Cond signalled by a
// child, a Stop followed by a Sleep, and a run of sleeps through
// SleepSteps (or the loop it stands for) whose steps schedule callbacks
// at their own wake times.
func runProgram(p *Proc, prog []progOp, r *progRun) {
	s := p.sim
	sleep := func(d Duration) {
		if d > 0 && s.canRunAhead(s.now.Add(d)) {
			r.eligible++
		}
		p.Sleep(d)
	}
	defer r.observe(p)
	for i, op := range prog {
		r.observe(p)
		switch op.kind {
		case 0, 1:
			sleep(op.d)
		case 2:
			d2 := op.d2
			s.After(op.d, "cb", func() { s.After(d2, "cb.nested", func() {}) })
			sleep(op.d2)
		case 3:
			// Cancelled at once, or after the Sleep, which is a no-op
			// when the event fired during it.
			id := s.After(op.d, "cancellable", func() {})
			if i%2 == 0 {
				id.Cancel()
			}
			sleep(op.d2)
			id.Cancel()
		case 4:
			t := NewTrigger(s, "child")
			d := op.d2
			s.GoAfter(op.d, p.name+".child", func(c *Proc) {
				r.observe(c)
				c.Sleep(d)
				r.observe(c)
				t.Fire()
			})
			t.Wait(p)
		case 5:
			d := op.d2
			s.After(op.d, "resume", func() { s.ResumeAfter(d, "wake", p) })
			p.Park("resume")
		case 6:
			c := NewCond(s, "signal")
			done := false
			d := op.d2
			s.GoAfter(op.d, p.name+".signaller", func(q *Proc) {
				r.observe(q)
				q.Sleep(d)
				r.observe(q)
				done = true
				c.Signal()
			})
			for !done {
				c.Wait(p)
			}
		case 7:
			if r.stops {
				s.Stop()
				r.stopAt = s.now
			}
			sleep(op.d)
		case 8:
			k := 0
			step := func() Duration {
				r.stepAt = append(r.stepAt, s.now)
				if k == len(op.steps) {
					return 0
				}
				d := op.steps[k]
				k++
				if k%2 == 0 {
					// Queued before the wake, so it fires first at the
					// same time, and nests a callback at that time.
					s.After(d, "step.cb", func() { s.After(0, "step.cb.nested", func() {}) })
				}
				return d
			}
			if r.steps {
				p.SleepSteps(step)
			} else {
				for d := step(); d != 0; d = step() {
					r.observe(p)
					sleep(d)
				}
			}
		}
	}
}

// dispatchModes are the ways TestSleepRunAheadMatchesQueuePath and
// TestSleepStepsMatchesSleepLoop dispatch a set of programs: Run (where
// programs call Stop), RunUntil in short slices, and a Step loop.
var dispatchModes = []struct {
	name  string
	stops bool
	run   func(s *Sim, r *progRun) error
}{
	{"Run", true, func(s *Sim, r *progRun) error {
		for {
			r.stopAt = -1
			if err := s.Run(); err != nil {
				return err
			}
			if r.stopAt < 0 {
				return nil
			}
			if s.Now() != r.stopAt {
				return fmt.Errorf("Run returned at %v after a Stop at %v", s.Now(), r.stopAt)
			}
		}
	}},
	{"RunUntil", false, func(s *Sim, r *progRun) error {
		for s.Pending() > 0 {
			deadline := s.Now().Add(Ns(37))
			s.RunUntil(deadline)
			if s.Now() != deadline {
				return fmt.Errorf("RunUntil(%v) returned at %v", deadline, s.Now())
			}
		}
		return nil
	}},
	{"Step", false, func(s *Sim, r *progRun) error {
		for s.Step() {
		}
		return nil
	}},
}

// TestSleepRunAheadMatchesQueuePath runs randomized process programs
// under Run (where eligible Sleeps skip the queue, and programs call
// Stop), under RunUntil in short slices (which bounds run-ahead by the
// deadline) and under a Step loop (which never chains, so every Sleep
// goes through the queue). The traced event sequences and the queue
// counters must be identical, and neither Run after a Stop nor
// RunUntil may leave the clock past where it must stop.
func TestSleepRunAheadMatchesQueuePath(t *testing.T) {
	modes := dispatchModes
	type outcome struct {
		trace    []TraceRecord
		stats    QueueStats
		eligible int
	}
	totalEligible := 0
	for seed := int64(1); seed <= 100; seed++ {
		progs := genPrograms(seed, 1+int(seed%4), 40)
		var got []outcome
		for _, m := range modes {
			s := New()
			tr := &RecordingTracer{}
			s.SetTracer(tr)
			r := &progRun{stops: m.stops}
			for i, prog := range progs {
				s.GoAfter(Duration(i)*Nanosecond, fmt.Sprintf("p%d", i), func(p *Proc) { runProgram(p, prog, r) })
			}
			if err := m.run(s, r); err != nil {
				t.Fatalf("seed %d %s: %v", seed, m.name, err)
			}
			got = append(got, outcome{tr.Records, s.Stats(), r.eligible})
		}
		for i := 1; i < len(modes); i++ {
			if !slices.Equal(got[i].trace, got[0].trace) {
				t.Fatalf("seed %d: %s trace (%d events) differs from %s trace (%d events)",
					seed, modes[i].name, len(got[i].trace), modes[0].name, len(got[0].trace))
			}
			if got[i].stats != got[0].stats {
				t.Fatalf("seed %d: %s stats %+v, %s stats %+v", seed, modes[i].name, got[i].stats, modes[0].name, got[0].stats)
			}
		}
		if got[2].eligible != 0 {
			t.Fatalf("seed %d: %d Sleeps skipped the queue under Step", seed, got[2].eligible)
		}
		totalEligible += got[0].eligible
	}
	if totalEligible == 0 {
		t.Fatal("no Sleep under Run was eligible to skip the queue; the test exercises nothing")
	}
}

// TestSleepStepsMatchesSleepLoop runs randomized process programs with
// kind-8 runs of sleeps under every dispatch mode twice: once through
// SleepSteps, once through the plain Sleep loop it stands for. The
// traced event sequences, the queue counters and the clock at every
// step call must be identical across all six runs; the final clock, and
// whether any process ran below a trampoline, must match the loop's
// under the same mode; the nesting bound must hold. Under
// Run, SleepSteps must save coroutine switches overall, or its
// continuations never ran.
func TestSleepStepsMatchesSleepLoop(t *testing.T) {
	type outcome struct {
		trace    []TraceRecord
		stats    QueueStats
		now      Time
		stepAt   []Time
		nested   bool
		switches int64
	}
	run := func(seed int64, progs [][]progOp, mode int, steps bool) outcome {
		m := dispatchModes[mode]
		s := New()
		tr := &RecordingTracer{}
		s.SetTracer(tr)
		r := &progRun{stops: m.stops, steps: steps}
		for i, prog := range progs {
			s.GoAfter(Duration(i)*Nanosecond, fmt.Sprintf("p%d", i), func(p *Proc) { runProgram(p, prog, r) })
		}
		if err := m.run(s, r); err != nil {
			t.Fatalf("seed %d %s (SleepSteps %v): %v", seed, m.name, steps, err)
		}
		if r.depthErr != nil {
			t.Fatalf("seed %d %s (SleepSteps %v): %v", seed, m.name, steps, r.depthErr)
		}
		return outcome{tr.Records, s.Stats(), s.Now(), r.stepAt, r.nestedRan > 0, s.Switches()}
	}
	var loopSwitches, stepSwitches int64
	stepCalls := 0
	for seed := int64(1); seed <= 100; seed++ {
		progs := withStepOps(genPrograms(seed, 1+int(seed%4), 40), seed)
		var first outcome
		for mode, m := range dispatchModes {
			loop, stepped := run(seed, progs, mode, false), run(seed, progs, mode, true)
			if mode == 0 {
				first = loop
				loopSwitches += loop.switches
				stepSwitches += stepped.switches
				stepCalls += len(loop.stepAt)
			}
			for _, got := range []outcome{loop, stepped} {
				if !slices.Equal(got.trace, first.trace) {
					t.Fatalf("seed %d %s: trace (%d events) differs from the Run loop's (%d events)", seed, m.name, len(got.trace), len(first.trace))
				}
				if got.stats != first.stats {
					t.Fatalf("seed %d %s: stats %+v, Run loop %+v", seed, m.name, got.stats, first.stats)
				}
				if !slices.Equal(got.stepAt, first.stepAt) {
					t.Fatalf("seed %d %s: step calls at %v, Run loop at %v", seed, m.name, got.stepAt, first.stepAt)
				}
			}
			if stepped.now != loop.now {
				t.Fatalf("seed %d %s: ends at %v through SleepSteps, %v through the loop", seed, m.name, stepped.now, loop.now)
			}
			if stepped.nested != loop.nested {
				t.Fatalf("seed %d %s: ran nested %v through SleepSteps, %v through the loop", seed, m.name, stepped.nested, loop.nested)
			}
		}
	}
	if stepCalls == 0 {
		t.Fatal("no step ran; the test exercises nothing")
	}
	if stepSwitches >= loopSwitches {
		t.Fatalf("SleepSteps switched into processes %d times under Run, the loop %d", stepSwitches, loopSwitches)
	}
}

// BenchmarkProcHandoff measures a wake that switches processes: two
// processes sleep in lockstep, offset by 1 ns, so every wake resumes
// the process that did not run last.
func BenchmarkProcHandoff(b *testing.B) {
	s := New()
	body := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Ns(2))
			}
		}
	}
	s.Go("a", body((b.N+1)/2))
	s.GoAfter(Ns(1), "b", body(b.N/2))
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcRing3 measures wakes that rotate through three
// processes: each sleeps in lockstep, offset by 1 ns from the one
// before, so every wake resumes the process after the one that ran
// last and the trampoline forwards instead of returning.
func BenchmarkProcRing3(b *testing.B) {
	s := New()
	body := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Ns(3))
			}
		}
	}
	for i, name := range []string{"a", "b", "c"} {
		s.GoAfter(Duration(i)*Nanosecond, name, body((b.N+2-i)/3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSelfWake measures a wake of the process that just
// parked, which the chained drain turns into straight-line execution.
func BenchmarkProcSelfWake(b *testing.B) {
	s := New()
	s.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Ns(1))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
