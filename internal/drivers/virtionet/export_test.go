package virtionet

import "fpgavirtio/internal/sim"

// UseBlockingPaths makes the driver probed with opt run its interrupt
// handlers and RX drains through the blocking bodies the step forms
// replaced (oracle_test.go). The returned function reports how many
// interrupts those handlers took, how many rescue polls the watchdog
// started and how many busy-poll drains ran.
func UseBlockingPaths(opt *Options) func() (irqs, rescues, busy int) {
	var irqs, rescues, busy int
	opt.blocking = &blockingPaths{
		rxIRQ: func(d *Device, p *sim.Proc, pq *pairQueues) {
			irqs++
			blockingRxIRQ(d, p, pq)
		},
		txIRQ: func(d *Device, p *sim.Proc, pq *pairQueues) {
			irqs++
			blockingTxIRQ(d, p, pq)
		},
		ctrlIRQ: func(d *Device, p *sim.Proc) {
			irqs++
			blockingCtrlIRQ(d, p)
		},
		napiPoll: func(d *Device, p *sim.Proc, pq *pairQueues) {
			rescues++
			blockingNapiPoll(d, p, pq)
		},
		busyDrain: func(d *Device, p *sim.Proc, pq *pairQueues) int {
			busy++
			return blockingBusyDrain(d, p, pq)
		},
	}
	return func() (int, int, int) { return irqs, rescues, busy }
}
