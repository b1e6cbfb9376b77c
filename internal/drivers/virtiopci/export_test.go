package virtiopci

// NumQueues returns the device's queue count.
func (t *Transport) NumQueues() int { return t.numQueues }
