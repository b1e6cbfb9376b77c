package vdev

import (
	"fmt"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/virtio"
	"fpgavirtio/internal/xdmaip"
)

// The queue engines, the deliveries into DeviceToDriver queues, the
// coalesce timers and the net user logic are step machines. A ring op
// is a virtio.Cursor over bus transfers, and each transfer runs inline
// as an xdmaip.Transfer, so every wait, sleep and transfer runs on the
// wake that ends it. The engines, the timers and the user logic are
// step processes (sim.Sim.GoSteps): none of them holds a coroutine.

func (c *Controller) ready(q *queue) bool {
	return q.enabled && c.status&virtio.StatusDriverOK != 0 &&
		c.status&virtio.StatusNeedsReset == 0
}

// ringBus drives one cursor's ring ops through the card port from a
// step: the step calls step first and returns any nonzero result.
type ringBus struct {
	port *xdmaip.Port
	p    *sim.Proc
	cur  virtio.Cursor
	x    xdmaip.Transfer
	busy bool // x is in flight
}

// step makes the cursor's transfers one after another: it returns a
// sleep or sim.Blocked while a transfer is in flight, and 0 once the
// op has finished (at once when no op runs).
func (b *ringBus) step() sim.Duration {
	for {
		if b.busy {
			if st := b.x.Step(); st != 0 {
				return st
			}
			b.port.Finish(b.x)
			b.busy = false
		}
		if !b.cur.Next() {
			return 0
		}
		x := &b.cur.Xfer
		b.x, b.busy = b.port.Begin(b.p, x.Addr, x.Buf, x.Write), true
	}
}

// interrupt raises the queue's MSI-X vector and latches the ISR bit.
func (c *Controller) interrupt(q *queue) {
	c.isr |= virtio.ISRQueue
	c.met.irqRaised.Inc()
	c.ep.RaiseMSIX(int(q.msixVec))
}

// decideIRQ starts the interrupt decision for a completion just
// published on dq, in the spec's race-free order: the used entry is
// already out, so the device re-reads the driver's suppression state
// now (avail flags, or used_event in EVENT_IDX mode) on cur, and raise
// interrupts unless it says to hold off. Reading before the used-index
// write would race the driver's re-enable-then-recheck sequence in
// NAPI and lose completions. With coalescing on, the completion is
// held back until the threshold is reached, and decideIRQ then reports
// false; the whole coalesced span counts once the decision comes, so
// an event-index threshold crossed by any held completion still
// interrupts.
func (c *Controller) decideIRQ(q *queue, dq virtio.DeviceRing, cur *virtio.Cursor) bool {
	n := 1
	if c.opt.IRQCoalescePkts > 1 {
		q.coalesced++
		if q.coalesced < c.opt.IRQCoalescePkts {
			c.met.irqCoalesced.Inc()
			c.armFlush(q)
			return false
		}
		n = q.coalesced
		q.coalesced = 0
	}
	dq.ShouldInterrupt(cur, n)
	return true
}

// flushIRQ starts the interrupt decision for the completions q still
// holds back; it reports false when there are none.
func (c *Controller) flushIRQ(q *queue, cur *virtio.Cursor) bool {
	if q.coalesced == 0 || q.dq == nil {
		return false
	}
	n := q.coalesced
	q.coalesced = 0
	q.dq.ShouldInterrupt(cur, n)
	return true
}

// raise ends an interrupt decision: interrupt unless the driver's
// suppression state said to hold off.
func (c *Controller) raise(q *queue, cur *virtio.Cursor) {
	if cur.Interrupt {
		c.interrupt(q)
	} else {
		c.met.irqSuppressed.Inc()
	}
}

// armFlush starts the coalesce timer for a queue holding completions,
// so the last packets of a burst are never stranded past the
// configured latency bound.
func (c *Controller) armFlush(q *queue) {
	if q.flushArmed {
		return
	}
	q.flushArmed = true
	// A timer armed while an earlier one's read is still in flight must
	// not share its cursor, so each takes an idle state of its own.
	var t *flushTimer
	if n := len(q.flushTimers); n > 0 {
		t = q.flushTimers[n-1]
		q.flushTimers[n-1] = nil
		q.flushTimers = q.flushTimers[:n-1]
	} else {
		t = &flushTimer{c: c, q: q, bus: ringBus{port: c.port}}
		t.step = t.run
	}
	t.bus.p = c.sim.GoSteps(c.opt.IRQCoalesceTimer, q.flushName, t.step)
}

// flushTimer is one coalesce timer, a step process that expires
// IRQCoalesceTimer after it is armed: it raises the interrupt for any
// completions the queue is still holding back, honouring the driver's
// suppression state.
type flushTimer struct {
	c       *Controller
	q       *queue
	bus     ringBus
	reading bool // the suppression read is in flight
	step    func() sim.Duration
}

// run is the timer's step.
func (t *flushTimer) run() sim.Duration {
	c, q := t.c, t.q
	if !t.reading {
		q.flushArmed = false
		if !c.flushIRQ(q, &t.bus.cur) {
			q.flushTimers = append(q.flushTimers, t)
			return 0
		}
		t.reading = true
	}
	if st := t.bus.step(); st != 0 {
		return st
	}
	c.raise(q, &t.bus.cur)
	t.reading = false
	q.flushTimers = append(q.flushTimers, t)
	return 0
}

// engine services a DriverToDevice queue: doorbell -> fetch chain ->
// gather data -> personality -> scatter response -> used -> IRQ. It is
// a step process whose step never returns 0.
type engine struct {
	c        *Controller
	q        *queue
	pc       uint8
	dq       virtio.DeviceRing // the ring captured at the last wakeup
	bus      ringBus
	writable int // the chain's device-writable capacity
	sp       sim.SpanRef
	step     func() sim.Duration
}

// Where the engine's step resumes.
const (
	engReady    = iota // wait until the queue is live, then probe the ring
	engProbed          // work found, or publish the idle hint
	engHinted          // probe again after the hint
	engIdle            // wait for a doorbell unless work arrived
	engKicked          // open the service interval
	engDrain           // probe for the next chain
	engDrained         // service it, or end the interval
	engChain           // fetch the chain
	engGather          // gather its readable data
	engCost            // sleep the personality's cost
	engEffect          // apply its effect, scatter the response
	engPublish         // used-entry formatting
	engComplete        // publish the used entry
	engIRQ             // start the interrupt decision
	engRaise           // end it
	engFlush           // flush coalesced completions
	engFlushed         // end that decision
	engEnd             // close the service interval
)

// newEngine starts q's engine process.
func (c *Controller) newEngine(q *queue, name string) {
	e := &engine{c: c, q: q, bus: ringBus{port: c.port}}
	e.step = e.run
	if l := c.opt.loops; l != nil {
		c.sim.Go(name, func(p *sim.Proc) { l.engine(p, e) })
		return
	}
	e.bus.p = c.sim.GoSteps(0, name, e.step)
}

// run is the engine's step. A ring op in flight is stepped
// first, and the step resumes at e.pc once it ends.
func (e *engine) run() sim.Duration {
	c, q, cur := e.c, e.q, &e.bus.cur
	for {
		if st := e.bus.step(); st != 0 {
			return st
		}
		switch e.pc {
		case engReady:
			if !c.ready(q) {
				q.cond.Await(e.bus.p)
				return sim.Blocked
			}
			// A fault-induced device reset can tear down and rebuild the
			// ring while the engine waits or is mid-transfer: capture
			// the ring once per wakeup so q.dq going nil (or being
			// swapped for a rebuilt ring) cannot crash the engine. The
			// old ring's host memory is never reused, so stale accesses
			// are inert.
			e.dq = q.dq
			// Evaluate the ring state before the kicked flag: a doorbell
			// can land while the availability fetch is in flight, and
			// the flag is what keeps that wakeup from being lost.
			e.dq.HasPending(cur)
			e.pc = engProbed
		case engProbed:
			if cur.Pending || q.kicked {
				e.pc = engKicked
				continue
			}
			// Going idle: publish the doorbell hint (avail_event or the
			// packed event structure), then re-check for work added
			// while we published.
			e.dq.PublishIdleHint(cur)
			e.pc = engHinted
		case engHinted:
			e.dq.HasPending(cur)
			e.pc = engIdle
		case engIdle:
			e.pc = engReady
			if !cur.Pending && !q.kicked {
				q.cond.Await(e.bus.p)
				return sim.Blocked
			}
		case engKicked:
			q.kicked = false
			// The hardware counter spans notification pickup to
			// ring-idle — "the time taken by the hardware to perform the
			// DMA operation once a notification is received" (paper
			// §IV-B). The telemetry span brackets the identical interval
			// so span-derived hardware attribution agrees with the
			// counter-based RTTSample.
			q.hw.Begin(c.sim.Now())
			e.sp = c.sim.BeginSpan(q.serviceSpan)
			e.pc = engDrain
			return c.clk.Cycles(notifyDecodeCycles)
		case engDrain:
			e.pc = engFlush
			if c.ready(q) {
				e.dq.HasPending(cur)
				e.pc = engDrained
			}
		case engDrained:
			if !cur.Pending {
				// The ring drained: flush any coalesced completions now
				// rather than waiting out the timer.
				e.pc = engFlush
				continue
			}
			c.met.chains.Inc()
			e.pc = engChain
			return c.clk.Cycles(chainSetupCycles)
		case engChain:
			e.dq.NextChain(cur)
			e.pc = engGather
		case engGather:
			if cur.Err != nil {
				panic(fmt.Sprintf("vdev: %s q%d: %v", c.ep.Name(), q.idx, cur.Err))
			}
			// The gather reuses the cursor's previous payload buffer, so
			// steady-state servicing does not allocate.
			cur.ReadChainInto(cur.Chain, cur.Data)
			e.pc = engCost
		case engCost:
			e.writable = 0
			for _, d := range cur.Chain {
				if d.Flags&virtio.DescFWrite != 0 {
					e.writable += int(d.Len)
				}
			}
			e.pc = engEffect
			if d := c.pers.ChainCost(q.idx, cur.Data, e.writable); d != 0 {
				return d
			}
		case engEffect:
			cur.WriteChain(cur.Chain, c.pers.HandleDriverChain(q.idx, cur.Data, e.writable))
			e.pc = engPublish
		case engPublish:
			e.pc = engComplete
			return c.clk.Cycles(usedPublishCycles)
		case engComplete:
			e.dq.Complete(cur, cur.Token, cur.Written)
			e.pc = engIRQ
		case engIRQ:
			e.pc = engDrain
			if c.decideIRQ(q, e.dq, cur) {
				e.pc = engRaise
			}
		case engRaise:
			c.raise(q, cur)
			e.pc = engDrain
		case engFlush:
			e.pc = engEnd
			if c.flushIRQ(q, cur) {
				e.pc = engFlushed
			}
		case engFlushed:
			c.raise(q, cur)
			e.pc = engEnd
		case engEnd:
			q.hw.End(c.sim.Now())
			e.sp.End()
			e.pc = engReady
		}
	}
}

// delivery pushes data into the next available buffer of a
// DeviceToDriver queue (the controller's RX path): wait for a posted
// buffer, scatter, publish used, interrupt. It is a SleepSteps step
// machine that returns 0 once the data is delivered, charged to the
// queue's hardware counter; one runs at a time per queue.
type delivery struct {
	c    *Controller
	q    *queue
	pc   uint8
	dq   virtio.DeviceRing // the ring captured at the last wakeup
	bus  ringBus
	data []byte
	err  error
	sp   sim.SpanRef
	step func() sim.Duration
}

// Where a delivery's step resumes.
const (
	dlReady     = iota // wait until the queue is live
	dlProbe            // probe the ring for a posted buffer
	dlProbed           // found one, or publish the idle hint
	dlHinted           // probe again after the hint
	dlIdle             // wait for a doorbell unless a buffer arrived
	dlGo               // open the delivery interval
	dlChain            // fetch the buffer's chain
	dlScatter          // scatter the data
	dlScattered        // used-entry formatting
	dlComplete         // publish the used entry
	dlIRQ              // start the interrupt decision
	dlRaise            // end it
	dlEnd              // close the interval
	dlDone             // delivered
)

func (c *Controller) newDelivery(q *queue) *delivery {
	dl := &delivery{c: c, q: q, bus: ringBus{port: c.port}, pc: dlDone}
	dl.step = dl.run
	return dl
}

// begin starts delivering data for p.
func (dl *delivery) begin(p *sim.Proc, data []byte) {
	dl.bus.p, dl.data, dl.err, dl.pc = p, data, nil, dlReady
}

// Deliver pushes data into the next available buffer of a
// DeviceToDriver queue, blocking the calling fabric process until it
// is delivered (see delivery).
func (c *Controller) Deliver(p *sim.Proc, qi int, data []byte) error {
	q := c.queues[qi]
	if q.dir != DeviceToDriver {
		return fmt.Errorf("vdev: queue %d is not device-to-driver", qi)
	}
	if l := c.opt.loops; l != nil {
		return l.deliver(p, q.dl, data)
	}
	q.dl.begin(p, data)
	p.SleepSteps(q.dl.step)
	return q.dl.err
}

// run is the delivery's SleepSteps step.
func (dl *delivery) run() sim.Duration {
	c, q, cur := dl.c, dl.q, &dl.bus.cur
	for {
		if st := dl.bus.step(); st != 0 {
			return st
		}
		switch dl.pc {
		case dlReady:
			if !c.ready(q) {
				q.cond.Await(dl.bus.p)
				return sim.Blocked
			}
			// Capture the ring per wakeup for the same reset-safety
			// reason as the engine: a mid-wait device reset swaps q.dq.
			dl.dq = q.dq
			dl.pc = dlProbe
		case dlProbe:
			dl.dq.HasPending(cur)
			dl.pc = dlProbed
		case dlProbed:
			if cur.Pending {
				dl.pc = dlGo
				continue
			}
			if q.kicked {
				// A doorbell raced the availability fetch: re-read
				// instead of parking.
				q.kicked = false
				dl.pc = dlProbe
				continue
			}
			dl.dq.PublishIdleHint(cur)
			dl.pc = dlHinted
		case dlHinted:
			dl.dq.HasPending(cur)
			dl.pc = dlIdle
		case dlIdle:
			dl.pc = dlProbe
			if cur.Pending || q.kicked {
				q.kicked = false
				continue
			}
			q.cond.Await(dl.bus.p)
			dl.pc = dlReady
			return sim.Blocked
		case dlGo:
			q.kicked = false
			q.hw.Begin(c.sim.Now())
			dl.sp = c.sim.BeginSpan(q.deliverSpan)
			dl.pc = dlChain
			return c.clk.Cycles(chainSetupCycles)
		case dlChain:
			dl.dq.NextChain(cur)
			dl.pc = dlScatter
		case dlScatter:
			if dl.err = cur.Err; dl.err != nil {
				dl.pc = dlEnd
				continue
			}
			cur.WriteChain(cur.Chain, dl.data)
			dl.pc = dlScattered
		case dlScattered:
			if cur.Written < len(dl.data) {
				dl.err = fmt.Errorf("vdev: queue %d buffer too small: %d < %d", q.idx, cur.Written, len(dl.data))
				dl.pc = dlEnd
				continue
			}
			dl.pc = dlComplete
			return c.clk.Cycles(usedPublishCycles)
		case dlComplete:
			dl.dq.Complete(cur, cur.Token, cur.Written)
			dl.pc = dlIRQ
		case dlIRQ:
			dl.pc = dlEnd
			if c.decideIRQ(q, dl.dq, cur) {
				dl.pc = dlRaise
			}
		case dlRaise:
			c.raise(q, cur)
			dl.pc = dlEnd
		case dlEnd:
			q.hw.End(c.sim.Now())
			dl.sp.End()
			dl.pc = dlDone
		case dlDone:
			return 0
		}
	}
}
