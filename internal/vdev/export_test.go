package vdev

import "fpgavirtio/internal/sim"

// UseBlockingLoops runs c's queue engines and deliveries, and d's user
// logic when d is not nil, through the blocking loops their step
// machines replaced (oracle_test.go). Call it before the simulation
// runs. The returned function reports how many chains, deliveries and
// echo frames those loops finished.
func UseBlockingLoops(c *Controller, d *NetDevice) func() (chains, deliveries, frames int) {
	o := &oracleCounts{}
	c.engineLoop = func(p *sim.Proc, e *engine) { blockingEngine(p, e, o) }
	c.deliverLoop = func(p *sim.Proc, dl *delivery, data []byte) error { return blockingDeliver(p, dl, data, o) }
	if d != nil {
		d.userLoop = func(p *sim.Proc, d *NetDevice) { blockingUserLoop(p, d, o) }
	}
	return func() (int, int, int) { return o.chains, o.deliveries, o.frames }
}
