package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fpgavirtio/internal/fvassert"
)

// stepProgram is a step that sleeps, awaits a Cond or a trigger, or
// spawns another step process, as rng draws, and ends after n calls.
func stepProgram(s *Sim, p **Proc, rng *RNG, n int, kick *Cond, done *Trigger, spawn func()) func() Duration {
	calls := 0
	return func() Duration {
		calls++
		if calls > n {
			return 0
		}
		switch rng.Intn(5) {
		case 0:
			kick.Await(*p)
			return Blocked
		case 1:
			if done.Await(*p) {
				return Blocked
			}
			return Ns(1)
		case 2:
			spawn()
			return Ns(2)
		default:
			return Ns(1 + int64(rng.Intn(9)))
		}
	}
}

// TestGoStepsMatchesSleepSteps: step processes give the same event
// trace, queue counters and end clock as coroutine processes running
// the same steps through SleepSteps, under every dispatch mode, with
// Cond and trigger waits and processes that spawn more processes, and
// they switch into no coroutine.
func TestGoStepsMatchesSleepSteps(t *testing.T) {
	type outcome struct {
		trace    []TraceRecord
		stats    QueueStats
		now      Time
		switches int64
	}
	run := func(seed int64, mode int, steps bool) outcome {
		s := New()
		tr := &RecordingTracer{}
		s.SetTracer(tr)
		kick := NewCond(s, "kick")
		done := NewTrigger(s, "done")
		rng := NewRNG(uint64(seed))
		spawned := 0
		var spawn func()
		spawn = func() {
			if spawned >= 24 {
				return
			}
			spawned++
			var p *Proc
			name := fmt.Sprintf("s%d", spawned)
			step := stepProgram(s, &p, rng.Fork(name), 12, kick, done, spawn)
			d := Duration(spawned%3) * Nanosecond
			if steps {
				p = s.GoSteps(d, name, step)
			} else {
				p = s.GoAfter(d, name, func(q *Proc) { q.SleepSteps(step) })
			}
		}
		for i := 0; i < 4; i++ {
			spawn()
		}
		for i := 1; i <= 12; i++ {
			s.After(Duration(7*i)*Nanosecond, "kick", kick.Broadcast)
		}
		s.After(Ns(50), "done", done.Fire)
		runModes[mode].run(s)
		return outcome{tr.Records, s.Stats(), s.Now(), s.Switches()}
	}
	for seed := int64(1); seed <= 20; seed++ {
		for mode, m := range runModes {
			loop, stepped := run(seed, mode, false), run(seed, mode, true)
			if !slices.Equal(stepped.trace, loop.trace) {
				t.Fatalf("seed %d %s: trace (%d events) differs from SleepSteps' (%d events)", seed, m.name, len(stepped.trace), len(loop.trace))
			}
			if stepped.stats != loop.stats || stepped.now != loop.now {
				t.Fatalf("seed %d %s: stats %+v at %v, SleepSteps %+v at %v", seed, m.name, stepped.stats, stepped.now, loop.stats, loop.now)
			}
			if stepped.switches != 0 {
				t.Fatalf("seed %d %s: %d switch-ins with step processes, want 0", seed, m.name, stepped.switches)
			}
			if loop.switches == 0 {
				t.Fatalf("seed %d %s: the coroutine processes never ran", seed, m.name)
			}
		}
	}
}

// TestStepProcessDeadlockNamesWait: Run's deadlock report names a step
// process that awaits a Cond no one broadcasts, and one that sleeps
// through its wakes and then awaits a trigger no one fires, but not a
// step process that ended.
func TestStepProcessDeadlockNamesWait(t *testing.T) {
	s := New()
	kick := NewCond(s, "h2c0.kick")
	done := NewTrigger(s, "done")
	var idle, mover *Proc
	idle = s.GoSteps(0, "engine", func() Duration {
		kick.Await(idle)
		return Blocked
	})
	sleeps := 0
	mover = s.GoSteps(Ns(3), "mover", func() Duration {
		if sleeps++; sleeps <= 3 {
			return Ns(5)
		}
		done.Await(mover)
		return Blocked
	})
	s.GoSteps(Ns(1), "isr", func() Duration { return 0 })
	err := s.Run()
	want := "[engine: wait:h2c0.kick mover: trigger:done]"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run error %v, want a deadlock naming %s", err, want)
	}
	if !strings.Contains(err.Error(), "2 process(es)") {
		t.Fatalf("Run error %v, want 2 parked processes", err)
	}
}

// TestStepProcessStaleResume: a resume queued for a step process that
// has since ended panics instead of running the recycled process, also
// when the pool has handed the process to a new spawn.
func TestStepProcessStaleResume(t *testing.T) {
	for _, respawn := range []bool{false, true} {
		t.Run(fmt.Sprintf("respawn=%v", respawn), func(t *testing.T) {
			s := New()
			var p *Proc
			p = s.GoSteps(0, "isr", func() Duration {
				s.ResumeAfter(Ns(10), "stale", p) // a resume it does not wait for
				return 0
			})
			if respawn {
				s.After(Ns(5), "respawn", func() {
					var q *Proc
					q = s.GoSteps(0, "isr2", func() Duration {
						NewCond(s, "never").Await(q)
						return Blocked
					})
					if q != p {
						t.Error("the pool did not hand the ended process out again")
					}
				})
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = s.Run()
				return nil
			}()
			msg, _ := got.(string)
			if !strings.Contains(msg, "stale resume of recycled process") {
				t.Fatalf("recovered %#v, want a stale-resume panic", got)
			}
		})
	}
}

// TestStepProcessBlockedWithoutResume: built with -tags fvinvariants, a
// step process whose step returns Blocked without arranging a resume
// fails naming the process, on its first step and on a later one.
func TestStepProcessBlockedWithoutResume(t *testing.T) {
	if !fvassert.Enabled {
		t.Skip("the check is compiled in only with -tags fvinvariants")
	}
	for _, first := range []bool{true, false} {
		t.Run(fmt.Sprintf("first=%v", first), func(t *testing.T) {
			s := New()
			calls := 0
			s.GoSteps(Ns(2), "isr", func() Duration {
				if calls++; calls == 1 && !first {
					return Ns(4)
				}
				return Blocked // with no resume arranged
			})
			got := func() (r any) {
				defer func() { r = recover() }()
				_ = s.Run()
				return nil
			}()
			msg, _ := got.(string)
			if !strings.HasPrefix(msg, "fvinvariant: ") || !strings.Contains(msg, "isr") || !strings.Contains(msg, "Blocked") {
				t.Fatalf("recovered %#v, want an fvinvariant failure naming isr", got)
			}
		})
	}
}
