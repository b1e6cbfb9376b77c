package fpgavirtio

import "fpgavirtio/internal/sim"

// SimSwitches reports how many times the session's simulator has
// switched into a process coroutine (sim.Sim.Switches).
func (b *baseSession) SimSwitches() int64 { return b.s.Switches() }

// HazardComputes reports how many preemption hazards the session's
// host has computed (hostos.Host.HazardComputes).
func (b *baseSession) HazardComputes() int64 { return b.host.HazardComputes() }

// SetSimTracer installs t as the session simulator's event tracer.
func (b *baseSession) SetSimTracer(t sim.Tracer) { b.s.SetTracer(t) }

// SetSimSpanSink installs the sink newSink builds over the session
// simulator's span-kind table as its verbose span sink.
func (b *baseSession) SetSimSpanSink(newSink func(*sim.SpanKinds) sim.SpanSink) {
	b.s.SetSpanSink(newSink(b.s.SpanKinds()))
}
