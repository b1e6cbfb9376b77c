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

// chainNames are the processes spawnChain starts, bottom of the switch
// stack first.
var chainNames = []string{"A", "B", "C", "D"}

// spawnChain starts the processes of chainNames so that each wakes the
// next: A sleeps, then each fires a trigger the next one waits on and
// parks for good. Under Run and RunUntil each wake switches from the
// waker into the woken process, so D's body after its wait runs at the
// top of a four-deep switch stack; under Step every process runs
// directly below the scheduler. D then calls body; depth reports how
// many of the chain's processes were on the switch stack when it did.
func spawnChain(s *Sim, body func(p *Proc)) (depth *int) {
	depth = new(int)
	never := NewCond(s, "never")
	var chain []*Proc
	var woke *Trigger
	for i, name := range chainNames {
		wait, wake := woke, NewTrigger(s, "wake"+name)
		last := i == len(chainNames)-1
		chain = append(chain, s.Go(name, func(p *Proc) {
			if wait == nil {
				p.Sleep(Us(1))
			} else {
				wait.Wait(p)
			}
			if !last {
				wake.Fire()
				never.Wait(p)
				return
			}
			for _, q := range chain {
				if q.onStack {
					*depth++
				}
			}
			body(p)
		}))
		woke = wake
	}
	return depth
}

// wantDepth is the switch-stack depth D's body runs at under a run mode.
func wantDepth(mode string) int {
	if mode == "Step" {
		return 1
	}
	return len(chainNames)
}

// stackErr reports a violation of the switch-stack invariant that
// holds whenever the scheduler has control: no handoff pending and no
// parked or pooled process on the stack.
func stackErr(s *Sim) error {
	if s.handoff != nil {
		return fmt.Errorf("handoff to %s pending at the scheduler", s.handoff.name)
	}
	for _, ps := range [][]*Proc{s.parked, s.procPool} {
		for _, p := range ps {
			if p.onStack {
				return fmt.Errorf("%s on the switch stack at the scheduler", p.name)
			}
		}
	}
	return nil
}

// TestNestedDispatchPanicPropagates: a panic at the top of a four-deep
// switch stack unwinds past three suspended processes to the caller of
// Run, RunUntil or Step with its original value.
func TestNestedDispatchPanicPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			want := &procPanic{code: 9}
			depth := spawnChain(s, func(*Proc) { panic(want) })
			got := func() (r any) {
				defer func() { r = recover() }()
				d.run(s)
				return nil
			}()
			if got != want {
				t.Fatalf("%s recovered %#v, want the body's panic value %#v", d.name, got, want)
			}
			if *depth != wantDepth(d.name) {
				t.Fatalf("%s: D ran at switch-stack depth %d, want %d", d.name, *depth, wantDepth(d.name))
			}
		})
	}
}

// TestNestedDispatchGoexitPropagates: a runtime.Goexit at the top of a
// four-deep switch stack ends the goroutine that called Run, RunUntil
// or Step.
func TestNestedDispatchGoexitPropagates(t *testing.T) {
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			depth := spawnChain(s, func(*Proc) { runtime.Goexit() })
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
			if *depth != wantDepth(d.name) {
				t.Fatalf("%s: D ran at switch-stack depth %d, want %d", d.name, *depth, wantDepth(d.name))
			}
		})
	}
}

// TestNestedDispatchStop: a Stop at the top of a four-deep switch stack
// unwinds the whole stack and returns control to Run at the Stop's
// time, and the next Run resumes where it left off.
func TestNestedDispatchStop(t *testing.T) {
	s := New()
	done := false
	var stopAt Time
	depth := spawnChain(s, func(p *Proc) {
		stopAt = s.Now()
		s.Stop()
		p.Sleep(Us(1))
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if *depth != len(chainNames) {
		t.Fatalf("D ran at switch-stack depth %d, want %d", *depth, len(chainNames))
	}
	if err := stackErr(s); err != nil {
		t.Fatalf("after Stop: %v", err)
	}
	if done || s.Now() != stopAt || s.Pending() != 1 {
		t.Fatalf("after Stop: done=%v now=%v (Stop at %v) pending=%d, want false, the Stop's time, 1",
			done, s.Now(), stopAt, s.Pending())
	}
	err := s.Run()
	if !done || s.Now() != stopAt.Add(Us(1)) {
		t.Fatalf("second Run: done=%v now=%v, want true, %v", done, s.Now(), stopAt.Add(Us(1)))
	}
	// A, B and C still wait on "never": the second Run reports them.
	if err == nil || !strings.Contains(err.Error(), "[A: wait:never B: wait:never C: wait:never]") {
		t.Fatalf("second Run error %v, want a deadlock naming A, B and C", err)
	}
}

// TestNestedDispatchDeadlock: a deadlock reached at the top of a
// four-deep switch stack unwinds to the caller of every run mode with
// every process parked, including the three below the one that parked
// last; Run's deadlock error names them all.
func TestNestedDispatchDeadlock(t *testing.T) {
	want := []string{"A: wait:never", "B: wait:never", "C: wait:never", "D: wait:idle", "E: wait:idle"}
	for _, d := range runModes {
		t.Run(d.name, func(t *testing.T) {
			s := New()
			c := NewCond(s, "idle")
			depth := spawnChain(s, func(p *Proc) { c.Wait(p) })
			s.Go("E", func(p *Proc) { c.Wait(p) })
			var err error
			if d.name == "Run" {
				err = s.Run()
			} else {
				d.run(s)
			}
			if *depth != wantDepth(d.name) {
				t.Fatalf("D ran at switch-stack depth %d, want %d", *depth, wantDepth(d.name))
			}
			if err := stackErr(s); err != nil {
				t.Fatal(err)
			}
			if got := s.parkedNames(); !slices.Equal(got, want) || s.Pending() != 0 {
				t.Fatalf("parked %v with %d events pending, want %v and none", got, s.Pending(), want)
			}
			if d.name == "Run" && (err == nil || !strings.Contains(err.Error(), fmt.Sprint(want))) {
				t.Fatalf("Run error %v, want one naming %v", err, want)
			}
		})
	}
}

// TestSwitchStackAssertions: built with -tags fvinvariants, a switch
// into a process that is already on the switch stack fails naming it,
// and so does control reaching the scheduler with a handoff pending.
func TestSwitchStackAssertions(t *testing.T) {
	if !fvassert.Enabled {
		t.Skip("the checks are compiled in only with -tags fvinvariants")
	}
	for _, c := range []struct {
		name string
		body func(s *Sim, p *Proc)
	}{
		{"reentry", func(s *Sim, p *Proc) { s.switchTo(p) }},
		{"handoff", func(s *Sim, p *Proc) {
			s.handoff = p
			p.yield(struct{}{})
		}},
	} {
		for _, d := range runModes {
			t.Run(c.name+"/"+d.name, func(t *testing.T) {
				s := New()
				s.Go("culprit", func(p *Proc) { c.body(s, p) })
				got := func() (r any) {
					defer func() { r = recover() }()
					d.run(s)
					return nil
				}()
				msg, _ := got.(string)
				if !strings.HasPrefix(msg, "fvinvariant: ") || !strings.Contains(msg, "culprit") {
					t.Fatalf("%s recovered %#v, want an fvinvariant failure naming culprit", d.name, got)
				}
			})
		}
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

// TestStepBlockedWithoutResume: built with -tags fvinvariants, a
// SleepSteps step that returns Blocked without arranging a resume of
// its process fails naming the process, whether the step runs on the
// process's coroutine (its first call) or as a continuation on the
// wake that ends a Trigger.Await or a Cond.Await, which itself passes.
func TestStepBlockedWithoutResume(t *testing.T) {
	if !fvassert.Enabled {
		t.Skip("the check is compiled in only with -tags fvinvariants")
	}
	firsts := []struct {
		name  string
		await func(s *Sim, p *Proc) // arranges a resume of p 5 ns on, or nil
	}{
		{"first", nil},
		{"after-trigger", func(s *Sim, p *Proc) {
			done := NewTrigger(s, "done")
			s.After(Ns(5), "done", done.Fire)
			done.Await(p)
		}},
		{"after-cond", func(s *Sim, p *Proc) {
			c := NewCond(s, "kick")
			s.After(Ns(5), "kick", c.Broadcast)
			c.Await(p)
		}},
	}
	for _, f := range firsts {
		for _, d := range runModes {
			t.Run(d.name+"/"+f.name, func(t *testing.T) {
				s := New()
				s.Go("device", func(p *Proc) {
					for i := 0; i < 8; i++ {
						p.Sleep(Ns(3))
					}
				})
				calls := 0
				s.Go("mover", func(p *Proc) {
					p.SleepSteps(func() Duration {
						calls++
						if calls == 1 && f.await != nil {
							f.await(s, p)
							return Blocked
						}
						return Blocked // with no resume arranged
					})
				})
				got := func() (r any) {
					defer func() { r = recover() }()
					d.run(s)
					return nil
				}()
				msg, _ := got.(string)
				if !strings.HasPrefix(msg, "fvinvariant: ") || !strings.Contains(msg, "mover") || !strings.Contains(msg, "Blocked") {
					t.Fatalf("%s recovered %#v, want an fvinvariant failure naming mover", d.name, got)
				}
				want := 2
				if f.await == nil {
					want = 1
				}
				if calls != want {
					t.Fatalf("failed in step call %d, want call %d", calls, want)
				}
			})
		}
	}
}

// TestCondAwaitDeadlockNamesCond: a step machine that never returns 0
// and Awaits its kick Cond between runs, like an idle XDMA engine, is
// reported by Run's deadlock error as waiting on that Cond, whether it
// is idle from its first step call or after a run that a Broadcast
// started.
func TestCondAwaitDeadlockNamesCond(t *testing.T) {
	for _, kicked := range []bool{false, true} {
		t.Run(fmt.Sprintf("kicked=%v", kicked), func(t *testing.T) {
			s := New()
			kick := NewCond(s, "h2c0.kick")
			running, runs := false, 0
			s.Go("xdma0.h2c0", func(p *Proc) {
				p.SleepSteps(func() Duration {
					if running {
						running = false
						runs++
						return Ns(40) // the run's sleep
					}
					kick.Await(p)
					running = true
					return Blocked
				})
			})
			if kicked {
				s.After(Ns(10), "kick", kick.Broadcast)
			}
			err := s.Run()
			want := "[xdma0.h2c0: wait:h2c0.kick]"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run error %v, want a deadlock naming %s", err, want)
			}
			wantRuns := 0
			if kicked {
				wantRuns = 1
			}
			if runs != wantRuns {
				t.Fatalf("%d runs, want %d", runs, wantRuns)
			}
		})
	}
}

// TestNestedDispatchDepth runs randomized process programs under Run,
// RunUntil slices and Stops, and checks the switch-stack invariant:
// through progRun.observe, that every running process is on the stack,
// and after every return to the scheduler, that the stack is empty and
// no handoff is pending. A switch into a process already on the stack
// would panic in the coroutine, and fails naming it in fvinvariants
// builds, where the scheduler also asserts the empty stack.
func TestNestedDispatchDepth(t *testing.T) {
	maxDepth := 0
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
				if err := stackErr(s); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
			if r.stackErr != nil {
				t.Fatalf("seed %d (RunUntil %v): %v", seed, until, r.stackErr)
			}
			maxDepth = max(maxDepth, r.maxDepth)
		}
	}
	if maxDepth < 3 {
		t.Fatalf("the switch stack grew to depth %d at most; the test does not nest three deep", maxDepth)
	}
}

// progOp is one step of a randomized process program.
type progOp struct {
	kind  int      // see runProgram
	d     Duration // the step's delay
	d2    Duration // a second delay, for steps that need two
	steps []stepOp // kind 8's steps, see withStepOps
}

// stepOp is one step of a kind-8 op: a sleep of d, or a wait that
// another process ends d after the op began, by firing a trigger or by
// setting a flag and signalling or broadcasting a Cond.
type stepOp struct {
	d    Duration
	wait int // stepSleep, stepTrigger, stepSignal or stepBroadcast
}

// The kinds of step a stepOp is.
const (
	stepSleep = iota
	stepTrigger
	stepSignal
	stepBroadcast
)

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
// kind 8: a run of 1 to 6 steps, each a sleep of 1 to 60 ns, the same
// range as the programs' own short delays, so the sleeps' wakes collide
// with the peers' wakes and callbacks, or, one time in six each, a wait
// on a trigger or on a Cond ended 0 to 120 ns after the op began, which
// may come before or after the wait starts. A Cond is signalled or
// broadcast, one time in two each. Its own source keeps genPrograms'
// draws, and so the programs of the other tests, unchanged.
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
				switch rng.Intn(6) {
				case 0:
					op.steps = append(op.steps, stepOp{Duration(rng.Intn(121)) * Nanosecond, stepTrigger})
				case 1:
					op.steps = append(op.steps, stepOp{Duration(rng.Intn(121)) * Nanosecond, stepSignal + rng.Intn(2)})
				default:
					op.steps = append(op.steps, stepOp{Duration(rng.Intn(60)+1) * Nanosecond, stepSleep})
				}
			}
			out[i][j] = op
		}
	}
	return out
}

// progRun is the shared state of one run of a set of programs.
type progRun struct {
	stops     bool   // whether step kind 7 calls Stop
	steps     bool   // whether step kind 8 calls SleepSteps or loops over Sleep, Trigger.Wait and Cond.Wait
	stepAt    []Time // clock at every kind-8 step call
	stopAt    Time   // clock at the latest Stop, -1 when none since Run began
	eligible  int    // Sleeps that could skip the queue
	waits     [2]int // kind-8 trigger waits that blocked, and that found it fired
	condWaits [2]int // kind-8 Cond waits that blocked, ended by Signal and by Broadcast

	// Switch-stack bookkeeping, see observe.
	nestedRan int   // observations above the bottom of the stack
	maxDepth  int   // deepest stack observed
	stackErr  error // first invariant violation observed
}

// observe records the depth of the switch stack p runs on top of and
// checks that p is on it. Programs observe before every step that may
// park and before finishing. The depth counts parked and pooled
// processes on the stack, which are all but the running one.
func (r *progRun) observe(p *Proc) {
	s := p.sim
	if !p.onStack && r.stackErr == nil {
		r.stackErr = fmt.Errorf("%s runs but is not on the switch stack", p.name)
	}
	depth := 1
	for _, ps := range [][]*Proc{s.parked, s.procPool} {
		for _, q := range ps {
			if q.onStack {
				depth++
			}
		}
	}
	if depth > 1 {
		r.nestedRan++
	}
	r.maxDepth = max(r.maxDepth, depth)
}

// runProgram executes one process program. Each step kind exercises a
// way an event reaches the queue: a Sleep, a callback (which may nest
// another), a cancelled callback, a wake from a child process firing a
// trigger, a resume scheduled by a callback, a Cond signalled by a
// child, a Stop followed by a Sleep, and a run of sleeps and trigger
// waits through SleepSteps (or the loop it stands for) whose steps
// schedule callbacks at their own wake times.
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
			// Each wait step's trigger or Cond is ended by its own
			// process, started when the op begins.
			trigs := make([]*Trigger, len(op.steps))
			conds := make([]*Cond, len(op.steps))
			done := make([]bool, len(op.steps))
			for j, st := range op.steps {
				switch st.wait {
				case stepTrigger:
					t := NewTrigger(s, "step")
					trigs[j] = t
					s.GoAfter(st.d, p.name+".firer", func(c *Proc) {
						r.observe(c)
						t.Fire()
					})
				case stepSignal, stepBroadcast:
					c := NewCond(s, "step")
					conds[j] = c
					s.GoAfter(st.d, p.name+".waker", func(q *Proc) {
						r.observe(q)
						done[j] = true
						if st.wait == stepSignal {
							c.Signal()
						} else {
							c.Broadcast()
						}
					})
				}
			}
			k := 0
			var waitOn *Trigger // the loop's next Trigger.Wait
			var waitCond *Cond  // the loop's next Cond.Wait
			step := func() Duration {
				r.stepAt = append(r.stepAt, s.now)
				for k < len(op.steps) {
					st := op.steps[k]
					switch st.wait {
					case stepSleep:
						k++
						if k%2 == 0 {
							// Queued before the wake, so it fires first at
							// the same time, and nests a callback at that
							// time.
							s.After(st.d, "step.cb", func() { s.After(0, "step.cb.nested", func() {}) })
						}
						return st.d
					case stepTrigger:
						t := trigs[k]
						k++
						if r.steps && t.Await(p) || !r.steps && !t.fired {
							r.waits[0]++
							waitOn, waitCond = t, nil
							return Blocked
						}
						r.waits[1]++
					default:
						// The predicate loop a Cond wait needs: the step
						// runs again on the wake and finds done set.
						if !done[k] {
							r.condWaits[st.wait-stepSignal]++
							if r.steps {
								conds[k].Await(p)
							}
							waitOn, waitCond = nil, conds[k]
							return Blocked
						}
						k++
					}
				}
				return 0
			}
			if r.steps {
				p.SleepSteps(step)
			} else {
				for d := step(); d != 0; d = step() {
					r.observe(p)
					switch {
					case d != Blocked:
						sleep(d)
					case waitCond != nil:
						waitCond.Wait(p)
					default:
						waitOn.Wait(p)
					}
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
// kind-8 runs of sleeps, trigger waits and Cond waits under every
// dispatch mode twice: once through SleepSteps, where a wait is a step
// that Awaits the trigger or the Cond and returns Blocked, once through
// the loop of Sleep, Trigger.Wait and Cond.Wait it stands for. The
// traced event sequences, the queue counters and the clock at every
// step call must be identical across all six runs; the final clock, and
// whether any process ran above the bottom of the switch stack, must
// match the loop's under the same mode; the stack invariant must hold.
// Under Run, SleepSteps must save coroutine switches overall, or its
// continuations never ran.
func TestSleepStepsMatchesSleepLoop(t *testing.T) {
	type outcome struct {
		trace     []TraceRecord
		stats     QueueStats
		now       Time
		stepAt    []Time
		waits     [2]int
		condWaits [2]int
		nested    bool
		switches  int64
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
		if r.stackErr != nil {
			t.Fatalf("seed %d %s (SleepSteps %v): %v", seed, m.name, steps, r.stackErr)
		}
		return outcome{tr.Records, s.Stats(), s.Now(), r.stepAt, r.waits, r.condWaits, r.nestedRan > 0, s.Switches()}
	}
	var loopSwitches, stepSwitches int64
	stepCalls := 0
	var waits, condWaits [2]int
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
				waits[0] += loop.waits[0]
				waits[1] += loop.waits[1]
				condWaits[0] += loop.condWaits[0]
				condWaits[1] += loop.condWaits[1]
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
				if got.waits != first.waits {
					t.Fatalf("seed %d %s: %v trigger waits blocked and found it fired, Run loop %v", seed, m.name, got.waits, first.waits)
				}
				if got.condWaits != first.condWaits {
					t.Fatalf("seed %d %s: %v Cond waits blocked until Signal and Broadcast, Run loop %v", seed, m.name, got.condWaits, first.condWaits)
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
	if waits[0] == 0 || waits[1] == 0 {
		t.Fatalf("%d trigger waits blocked and %d found it fired; the test must exercise both", waits[0], waits[1])
	}
	if condWaits[0] == 0 || condWaits[1] == 0 {
		t.Fatalf("%d Cond waits blocked until a Signal and %d until a Broadcast; the test must exercise both", condWaits[0], condWaits[1])
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
// last: the switch stack grows to all three and unwinds to the bottom.
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

// BenchmarkProcAlternate measures wakes that alternate between two
// processes while the process the scheduler switched into stays parked
// below them: the pattern of a device's queue engine and user logic
// waking each other under the application process that kicked them.
func BenchmarkProcAlternate(b *testing.B) {
	s := New()
	done := NewTrigger(s, "done")
	left := 2
	body := func(n int) func(p *Proc) {
		return func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(Ns(2))
			}
			if left--; left == 0 {
				done.Fire()
			}
		}
	}
	s.Go("app", func(p *Proc) {
		s.Go("a", body((b.N+1)/2))
		s.GoAfter(Ns(1), "b", body(b.N/2))
		done.Wait(p)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
