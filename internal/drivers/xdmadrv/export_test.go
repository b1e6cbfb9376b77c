package xdmadrv

import "fpgavirtio/internal/sim"

// UseBlockingISR makes the driver probed with opt register the
// blocking channel ISR the step-form one replaced (oracle_test.go).
// The returned function reports how many interrupts it handled.
func UseBlockingISR(opt *Options) func() int {
	n := 0
	opt.blockingISR = func(ch *channelState, p *sim.Proc) {
		n++
		blockingISR(ch, p)
	}
	return func() int { return n }
}
