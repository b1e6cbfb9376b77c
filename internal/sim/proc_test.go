package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
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

// progOp is one step of a randomized process program.
type progOp struct {
	kind int      // see runProgram
	d    Duration // the step's delay
	d2   Duration // a second delay, for steps that need two
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

// progRun is the shared state of one run of a set of programs.
type progRun struct {
	stops    bool // whether step kind 7 calls Stop
	stopAt   Time // clock at the latest Stop, -1 when none since Run began
	eligible int  // Sleeps that could skip the queue
}

// runProgram executes one process program. Each step kind exercises a
// way an event reaches the queue: a Sleep, a callback (which may nest
// another), a cancelled callback, a wake from a child process firing a
// trigger, a resume scheduled by a callback, a Cond signalled by a
// child, and a Stop followed by a Sleep.
func runProgram(p *Proc, prog []progOp, r *progRun) {
	s := p.sim
	sleep := func(d Duration) {
		if d > 0 && s.canRunAhead(s.now.Add(d)) {
			r.eligible++
		}
		p.Sleep(d)
	}
	for i, op := range prog {
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
				c.Sleep(d)
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
				q.Sleep(d)
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
		}
	}
}

// TestSleepRunAheadMatchesQueuePath runs randomized process programs
// under Run (where eligible Sleeps skip the queue, and programs call
// Stop), under RunUntil in short slices (which bounds run-ahead by the
// deadline) and under a Step loop (which never chains, so every Sleep
// goes through the queue). The traced event sequences and the queue
// counters must be identical, and neither Run after a Stop nor
// RunUntil may leave the clock past where it must stop.
func TestSleepRunAheadMatchesQueuePath(t *testing.T) {
	modes := []struct {
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
