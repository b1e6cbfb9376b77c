package vdev

import "fpgavirtio/internal/sim"

// UseBlockingLoops makes the device built from opt, a *NetOptions,
// *BlkOptions or *ConsoleOptions, run its queue engines and deliveries,
// and a net device its user logic, through the blocking loops their
// step machines replaced (oracle_test.go). Call it before building the
// device. The returned function reports how many chains, deliveries and
// echo frames those loops finished.
func UseBlockingLoops(opt any) func() (chains, deliveries, frames int) {
	o := &oracleCounts{}
	l := &blockingLoops{
		engine:  func(p *sim.Proc, e *engine) { blockingEngine(p, e, o) },
		deliver: func(p *sim.Proc, dl *delivery, data []byte) error { return blockingDeliver(p, dl, data, o) },
		user:    func(p *sim.Proc, d *NetDevice) { blockingUserLoop(p, d, o) },
	}
	switch opt := opt.(type) {
	case *NetOptions:
		opt.loops = l
	case *BlkOptions:
		opt.loops = l
	case *ConsoleOptions:
		opt.loops = l
	default:
		panic("vdev: UseBlockingLoops needs device options")
	}
	return func() (int, int, int) { return o.chains, o.deliveries, o.frames }
}
