package xdmadrv

import (
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/xdmaip"
)

// blockingISR is the blocking channel ISR the step-form isr replaced,
// kept as its oracle: read (and clear) engine status, then wake the
// blocked file operation.
func blockingISR(ch *channelState, p *sim.Proc) {
	d := ch.drv
	ch.irqs.Inc()
	d.host.CPUWork(p, isrBodyCost)
	st := d.host.RC.MMIORead(p, d.bar1+ch.chanBase+xdmaip.RegChanStatus+4, 4)
	if st&xdmaip.StatusDescError != 0 {
		ch.errSeen = true
		ch.wq.Wake()
		return
	}
	if st&xdmaip.StatusDescComplete != 0 {
		ch.complete = true
		ch.wq.Wake()
	}
}
