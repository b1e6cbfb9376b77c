package virtio

import (
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/sim"
)

// DMA is a blocking path to host memory: each access blocks the calling
// process until it completes.
type DMA interface {
	ReadInto(p *sim.Proc, a mem.Addr, dst []byte)
	Write(p *sim.Proc, a mem.Addr, data []byte)
}

// blockingRing drives a device ring's op cursors through a blocking
// DMA, one transfer after another, so a test process calls each op as
// one blocking call.
type blockingRing struct {
	r   DeviceRing
	dma DMA
	c   Cursor
}

func newBlockingSplit(dma DMA, lay RingLayout) *blockingRing {
	return &blockingRing{r: NewDeviceQueue(lay), dma: dma}
}

func newBlockingPacked(dma DMA, lay PackedLayout) *blockingRing {
	return &blockingRing{r: NewPackedDeviceQueue(lay), dma: dma}
}

// split is the split ring under the adapter.
func (b *blockingRing) split() *DeviceQueue { return b.r.(*DeviceQueue) }

// run makes every transfer of the op the cursor has started.
func (b *blockingRing) run(p *sim.Proc) {
	for b.c.Next() {
		x := &b.c.Xfer
		if x.Write {
			b.dma.Write(p, x.Addr, x.Buf)
		} else {
			b.dma.ReadInto(p, x.Addr, x.Buf)
		}
	}
}

func (b *blockingRing) HasPending(p *sim.Proc) bool {
	b.r.HasPending(&b.c)
	b.run(p)
	return b.c.Pending
}

func (b *blockingRing) NextChain(p *sim.Proc) ([]Desc, ChainToken, error) {
	b.r.NextChain(&b.c)
	b.run(p)
	return b.c.Chain, b.c.Token, b.c.Err
}

func (b *blockingRing) ReadChainInto(p *sim.Proc, chain []Desc, buf []byte) []byte {
	b.c.ReadChainInto(chain, buf)
	b.run(p)
	return b.c.Data
}

func (b *blockingRing) WriteChain(p *sim.Proc, chain []Desc, data []byte) int {
	b.c.WriteChain(chain, data)
	b.run(p)
	return b.c.Written
}

func (b *blockingRing) Complete(p *sim.Proc, tok ChainToken, written int) {
	b.r.Complete(&b.c, tok, written)
	b.run(p)
}

func (b *blockingRing) ShouldInterrupt(p *sim.Proc) bool { return b.ShouldInterruptSince(p, 1) }

func (b *blockingRing) ShouldInterruptSince(p *sim.Proc, n int) bool {
	b.r.ShouldInterrupt(&b.c, n)
	b.run(p)
	return b.c.Interrupt
}

func (b *blockingRing) PublishIdleHint(p *sim.Proc) {
	b.r.PublishIdleHint(&b.c)
	b.run(p)
}

// fetchChain walks the split-ring chain at head through NextChain,
// after publishing head in the next avail-ring slot of m.
func (b *blockingRing) fetchChain(p *sim.Proc, m *mem.Memory, head uint16) ([]Desc, error) {
	q := b.split()
	m.PutU16(q.lay.Avail+availHeaderLen+mem.Addr(q.lastAvail%uint16(q.lay.QueueSize))*2, head)
	m.PutU16(q.lay.Avail+2, q.lastAvail+1)
	chain, _, err := b.NextChain(p)
	return chain, err
}

// setNoNotify publishes UsedFNoNotify, telling the driver doorbells may
// be skipped while the device is actively polling.
func (b *blockingRing) setNoNotify(p *sim.Proc, on bool) {
	v := uint16(0)
	if on {
		v = UsedFNoNotify
	}
	b.dma.Write(p, b.split().lay.Used, []byte{byte(v), byte(v >> 8)})
}
