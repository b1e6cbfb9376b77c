package fpgavirtio

import "fpgavirtio/internal/sim"

// SimSwitches reports how many times the session's simulator has
// switched into a process coroutine (sim.Sim.Switches).
func (b *baseSession) SimSwitches() int64 { return b.s.Switches() }

// SetSimTracer installs t as the session simulator's event tracer.
func (b *baseSession) SetSimTracer(t sim.Tracer) { b.s.SetTracer(t) }
