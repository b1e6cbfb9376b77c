package sim

import (
	"runtime"
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
