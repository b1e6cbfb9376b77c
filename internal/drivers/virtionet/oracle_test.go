package virtionet

import (
	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

// The blocking interrupt handlers and RX drains the step forms
// replaced, kept as their oracle: every cost is a CPUWork or a Sleep of
// the handler's own process.

func blockingTxIRQ(d *Device, p *sim.Proc, pq *pairQueues) {
	d.host.CPUWork(p, irqBodyCost)
	if d.resetting {
		return
	}
	used := pq.tx.HarvestInto(p, pq.irqUsed)
	for _, u := range used {
		idx := u.Token.(txToken).idx
		if fvassert.Enabled && !pq.txInFlight[idx] {
			fvassert.Failf("virtionet: TX completion for buffer %d that is not in flight", idx)
		}
		pq.txInFlight[idx] = false
		pq.txFree = append(pq.txFree, idx)
	}
	pq.irqUsed = used[:0]
	pq.txWQ.Wake()
}

func blockingRxIRQ(d *Device, p *sim.Proc, pq *pairQueues) {
	d.rxIRQs.Inc()
	d.host.CPUWork(p, irqBodyCost)
	if d.resetting {
		return
	}
	pq.rx.SetNoInterrupt(true)
	p.Sleep(d.host.Config().SoftIRQLatency)
	blockingNapiPoll(d, p, pq)
}

func blockingCtrlIRQ(d *Device, p *sim.Proc) {
	d.host.CPUWork(p, irqBodyCost)
	if d.resetting {
		return
	}
	d.ctrlWQ.Wake()
}

func blockingNapiPoll(d *Device, p *sim.Proc, pq *pairQueues) {
	if pq.polling {
		return
	}
	pq.polling = true
	sp := p.Sim().BeginSpan(d.spans.napi)
	defer sp.End()
	for {
		if d.resetting || blockingDrainRx(d, p, pq) < 0 {
			pq.polling = false
			return
		}
		pq.rx.SetNoInterrupt(false)
		if !pq.rx.HasUsed() {
			pq.polling = false
			return
		}
		pq.rx.SetNoInterrupt(true)
	}
}

func blockingBusyDrain(d *Device, p *sim.Proc, pq *pairQueues) int {
	pq.polling = true
	sp := p.Sim().BeginSpan(d.spans.busypoll)
	n := blockingDrainRx(d, p, pq)
	sp.End()
	pq.polling = false
	return n
}

func blockingDrainRx(d *Device, p *sim.Proc, pq *pairQueues) int {
	used := pq.rx.HarvestInto(p, pq.rxUsed)
	pq.rxUsed = used
	for _, u := range used {
		tok := u.Token.(rxToken)
		d.host.CPUWork(p, napiPerPktCost)
		if u.Written < virtio.NetHdrSize || u.Written > d.rxBufSize {
			if d.rxLenErrs == nil {
				d.rxLenErrs = d.host.Metrics().Counter(telemetry.MetricVirtionetRxLenErrors)
			}
			d.rxLenErrs.Inc()
		} else {
			_ = d.stack.Input(p, d.receive(pq, tok.addr, u.Written))
		}
		if d.resetting {
			return -1
		}
		d.host.CPUWork(p, refillCost)
		if err := pq.rx.AddChain1(p, virtio.BufSeg{Addr: tok.addr, Len: d.rxBufSize, DeviceWritten: true}, u.Token); err != nil {
			panic("virtionet: repost: " + err.Error())
		}
	}
	if d.opt.ForceKicks {
		pq.rx.Kick(p)
	} else {
		pq.rx.KickIfNeeded(p)
	}
	return len(used)
}
