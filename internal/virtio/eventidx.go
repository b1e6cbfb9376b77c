package virtio

import "fpgavirtio/internal/mem"

// This file implements VIRTIO_F_RING_EVENT_IDX (spec §2.7.7/§2.7.8):
// instead of boolean suppression flags, each side publishes an index
// threshold — used_event in the avail ring's tail ("interrupt me when
// used passes this") and avail_event in the used ring's tail ("kick me
// when avail passes this") — allowing fine-grained batching of both
// interrupts and doorbells.

// NeedEvent is the spec's vring_need_event: whether crossing from old
// to new passed the event threshold (all arithmetic mod 2^16).
func NeedEvent(event, new, old uint16) bool {
	return uint16(new-event-1) < uint16(new-old)
}

// usedEventAddr is where the driver publishes its interrupt threshold.
func (l RingLayout) usedEventAddr() mem.Addr {
	return l.Avail + availHeaderLen + mem.Addr(2*l.QueueSize)
}

// availEventAddr is where the device publishes its doorbell threshold.
func (l RingLayout) availEventAddr() mem.Addr {
	return l.Used + usedHeaderLen + mem.Addr(usedEntrySize*l.QueueSize)
}

// ---- driver side ----------------------------------------------------------

// EnableEventIdx switches the queue to event-index suppression; call
// once, after the feature is negotiated and before traffic starts.
func (q *DriverQueue) EnableEventIdx() {
	q.eventIdx = true
	// Arm immediately: interrupt on the first used entry.
	q.mem.PutU16(q.lay.usedEventAddr(), q.lastUsedSeen)
}

// NeedKick reports whether the device asked for a doorbell covering
// the avail entries added since the last KickDone. Without EVENT_IDX
// it falls back to the used-flags hint.
func (q *DriverQueue) NeedKick() bool {
	if !q.eventIdx {
		return !q.DeviceNoNotify()
	}
	event := q.mem.U16(q.lay.availEventAddr())
	return NeedEvent(event, q.availShadow, q.lastKicked)
}

// KickDone records that the driver has notified (or decided not to)
// up to the current avail index.
func (q *DriverQueue) KickDone() { q.lastKicked = q.availShadow }

// armUsedEvent publishes the driver's interrupt threshold.
func (q *DriverQueue) armUsedEvent(idx uint16) {
	q.mem.PutU16(q.lay.usedEventAddr(), idx)
}

// ---- device side ----------------------------------------------------------

// EnableEventIdx switches the device-side queue to event-index mode.
func (q *DeviceQueue) EnableEventIdx() { q.eventIdx = true }

// suppression runs ShouldInterrupt and PublishIdleHint. Both threshold
// words are event-class addresses, unconstrained by the publish order.
func (q *DeviceQueue) suppression(c *Cursor) bool {
	switch c.pc {
	case splitIRQ:
		c.pc = splitIRQDone
		if q.eventIdx {
			return bus.Read(c, q.lay.usedEventAddr(), c.scratch[:2])
		}
		return bus.Read(c, q.lay.Avail, c.scratch[:2])
	case splitIRQDone:
		if q.eventIdx {
			c.Interrupt = NeedEvent(u16le(c.scratch[:2]), c.idx, c.old)
		} else {
			c.Interrupt = u16le(c.scratch[:2])&AvailFNoInterrupt == 0
		}
		return c.done()
	case splitHint:
		c.scratch[0], c.scratch[1] = byte(c.idx), byte(c.idx>>8)
		c.pc = splitHintDone
		return bus.Write(c, q.lay.availEventAddr(), c.scratch[:2])
	}
	return c.done()
}
