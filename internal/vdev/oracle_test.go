package vdev

import (
	"fmt"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/virtio"
)

// The blocking loops the queue engines', deliveries' and net user
// logic's step machines replaced, kept as their oracle: every ring op
// blocks the calling fabric process through each of its bus transfers,
// and every cost is a Sleep.

// oracleCounts counts what the blocking loops finished, so a test can
// tell they ran.
type oracleCounts struct{ chains, deliveries, frames int }

// blockingRing runs ring ops on a cursor to completion through the
// card port's blocking transfers.
type blockingRing struct {
	p   *sim.Proc
	c   *Controller
	dq  virtio.DeviceRing
	cur *virtio.Cursor
}

func (r blockingRing) run() {
	for r.cur.Next() {
		x := &r.cur.Xfer
		if x.Write {
			r.c.port.HostWrite(r.p, x.Addr, x.Buf)
		} else {
			r.c.port.HostReadInto(r.p, x.Addr, x.Buf)
		}
	}
}

func (r blockingRing) hasPending() bool {
	r.dq.HasPending(r.cur)
	r.run()
	return r.cur.Pending
}

func (r blockingRing) nextChain() ([]virtio.Desc, virtio.ChainToken, error) {
	r.dq.NextChain(r.cur)
	r.run()
	return r.cur.Chain, r.cur.Token, r.cur.Err
}

func (r blockingRing) readChainInto(chain []virtio.Desc, buf []byte) []byte {
	r.cur.ReadChainInto(chain, buf)
	r.run()
	return r.cur.Data
}

func (r blockingRing) writeChain(chain []virtio.Desc, data []byte) int {
	r.cur.WriteChain(chain, data)
	r.run()
	return r.cur.Written
}

func (r blockingRing) complete(tok virtio.ChainToken, written int) {
	r.dq.Complete(r.cur, tok, written)
	r.run()
}

func (r blockingRing) shouldInterrupt(n int) bool {
	r.dq.ShouldInterrupt(r.cur, n)
	r.run()
	return r.cur.Interrupt
}

func (r blockingRing) publishIdleHint() {
	r.dq.PublishIdleHint(r.cur)
	r.run()
}

// blockingWaitReady parks the fabric process until the queue is live.
func blockingWaitReady(p *sim.Proc, c *Controller, q *queue) {
	for !c.ready(q) {
		q.cond.Wait(p)
	}
}

// blockingMaybeInterrupt is the interrupt decision after a completion,
// coalescing included.
func blockingMaybeInterrupt(c *Controller, q *queue, r blockingRing) {
	n := 1
	if c.opt.IRQCoalescePkts > 1 {
		q.coalesced++
		if q.coalesced < c.opt.IRQCoalescePkts {
			c.met.irqCoalesced.Inc()
			c.armFlush(q)
			return
		}
		n = q.coalesced
		q.coalesced = 0
	}
	if r.shouldInterrupt(n) {
		c.interrupt(q)
	} else {
		c.met.irqSuppressed.Inc()
	}
}

// blockingEngine is the queue engine's loop.
func blockingEngine(p *sim.Proc, e *engine, o *oracleCounts) {
	c, q := e.c, e.q
	var cur virtio.Cursor
	for {
		blockingWaitReady(p, c, q)
		r := blockingRing{p, c, q.dq, &cur}
		if !r.hasPending() && !q.kicked {
			r.publishIdleHint()
			if r.hasPending() || q.kicked {
				continue
			}
			q.cond.Wait(p)
			continue
		}
		q.kicked = false
		q.hw.Begin(p.Now())
		sp := c.sim.BeginSpan(q.serviceSpan)
		p.Sleep(c.clk.Cycles(notifyDecodeCycles))
		for c.ready(q) && r.hasPending() {
			c.met.chains.Inc()
			p.Sleep(c.clk.Cycles(chainSetupCycles))
			chain, tok, err := r.nextChain()
			if err != nil {
				panic(fmt.Sprintf("vdev: %s q%d: %v", c.ep.Name(), q.idx, err))
			}
			data := r.readChainInto(chain, cur.Data)
			writable := 0
			for _, d := range chain {
				if d.Flags&virtio.DescFWrite != 0 {
					writable += int(d.Len)
				}
			}
			p.Sleep(c.pers.ChainCost(q.idx, data, writable))
			resp := c.pers.HandleDriverChain(q.idx, data, writable)
			written := 0
			if len(resp) > 0 {
				written = r.writeChain(chain, resp)
			}
			p.Sleep(c.clk.Cycles(usedPublishCycles))
			r.complete(tok, written)
			blockingMaybeInterrupt(c, q, r)
			o.chains++
		}
		// The ring drained: flush any coalesced completions.
		if q.coalesced != 0 && q.dq != nil {
			n := q.coalesced
			q.coalesced = 0
			if (blockingRing{p, c, q.dq, &cur}).shouldInterrupt(n) {
				c.interrupt(q)
			} else {
				c.met.irqSuppressed.Inc()
			}
		}
		q.hw.End(p.Now())
		sp.End()
	}
}

// blockingDeliver is Deliver's loop.
func blockingDeliver(p *sim.Proc, dl *delivery, data []byte, o *oracleCounts) error {
	c, q := dl.c, dl.q
	var cur virtio.Cursor
	blockingWaitReady(p, c, q)
	r := blockingRing{p, c, q.dq, &cur}
	for !r.hasPending() {
		if q.kicked {
			q.kicked = false
			continue
		}
		r.publishIdleHint()
		if r.hasPending() || q.kicked {
			q.kicked = false
			continue
		}
		q.cond.Wait(p)
		blockingWaitReady(p, c, q)
		r.dq = q.dq
	}
	q.kicked = false
	q.hw.Begin(p.Now())
	sp := c.sim.BeginSpan(q.deliverSpan)
	p.Sleep(c.clk.Cycles(chainSetupCycles))
	chain, tok, err := r.nextChain()
	if err != nil {
		q.hw.End(p.Now())
		sp.End()
		return err
	}
	written := r.writeChain(chain, data)
	if written < len(data) {
		q.hw.End(p.Now())
		sp.End()
		return fmt.Errorf("vdev: queue %d buffer too small: %d < %d", q.idx, written, len(data))
	}
	p.Sleep(c.clk.Cycles(usedPublishCycles))
	r.complete(tok, written)
	blockingMaybeInterrupt(c, q, r)
	q.hw.End(p.Now())
	sp.End()
	o.deliveries++
	return nil
}

// blockingUserLoop is the net user logic's loop.
func blockingUserLoop(p *sim.Proc, d *NetDevice, o *oracleCounts) {
	for {
		f, ok := d.popFrame()
		for !ok {
			d.frameC.Wait(p)
			f, ok = d.popFrame()
		}
		d.respGen.Begin(p.Now())
		sp := p.Sim().BeginSpan(d.respSpan)
		p.Sleep(d.echo(f.frame))
		d.respGen.End(p.Now())
		sp.End()
		if len(d.resp) != 0 {
			qi, buf, err := d.rxBuffer(f.pair, d.resp)
			if err != nil {
				panic("vdev: net: " + err.Error())
			}
			if err := d.ctrl.Deliver(p, qi, buf); err != nil {
				panic("vdev: net: " + err.Error())
			}
		}
		d.framePool = append(d.framePool, f.frame[:0])
		o.frames++
	}
}
