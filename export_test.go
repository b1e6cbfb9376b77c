package fpgavirtio

// SimSwitches reports how many times the session's simulator has
// switched into a process coroutine (sim.Sim.Switches).
func (b *baseSession) SimSwitches() int64 { return b.s.Switches() }
