package vdev

import (
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/virtio"
)

// Console queue indices (receiveq, transmitq of port 0).
const (
	ConsoleQueueRX = 0
	ConsoleQueueTX = 1
)

// ByteHandler is console user logic: it consumes bytes written by the
// host and may return bytes to deliver back (the prior work [14]
// implemented exactly this console device).
// It runs inside the TX queue engine's step, so it must not block.
type ByteHandler interface {
	HandleBytes(data []byte) []byte
}

// EchoBytes is console user logic that reflects its input.
type EchoBytes struct{}

// HandleBytes implements ByteHandler.
func (EchoBytes) HandleBytes(data []byte) []byte { return data }

// ConsoleOptions parameterizes a console-device instance.
type ConsoleOptions struct {
	Link    pcie.LinkConfig
	Handler ByteHandler

	loops *blockingLoops // set only by tests, see Options
}

// ConsoleDevice is the VirtIO console personality.
type ConsoleDevice struct {
	ctrl *Controller
	opt  ConsoleOptions

	outbox [][]byte
	outC   *sim.Cond
}

// NewConsole attaches a console device to the root complex.
func NewConsole(s *sim.Sim, rc *pcie.RootComplex, name string, opt ConsoleOptions) *ConsoleDevice {
	if opt.Handler == nil {
		opt.Handler = EchoBytes{}
	}
	d := &ConsoleDevice{opt: opt, outC: sim.NewCond(s, name+".out")}
	d.ctrl = NewController(s, rc, name, d, Options{Link: opt.Link, loops: opt.loops})
	s.Go(name+".userlogic", d.userLoop)
	return d
}

// Controller returns the underlying VirtIO controller.
func (d *ConsoleDevice) Controller() *Controller { return d.ctrl }

// Type implements Personality.
func (d *ConsoleDevice) Type() virtio.DeviceType { return virtio.DeviceConsole }

// DeviceFeatures implements Personality.
func (d *ConsoleDevice) DeviceFeatures() virtio.Feature { return 0 }

// NumQueues implements Personality.
func (d *ConsoleDevice) NumQueues() int { return 2 }

// QueueDir implements Personality.
func (d *ConsoleDevice) QueueDir(q int) Dir {
	if q == ConsoleQueueRX {
		return DeviceToDriver
	}
	return DriverToDevice
}

// ConfigBytes implements Personality: cols/rows/max_ports (unused).
func (d *ConsoleDevice) ConfigBytes() []byte { return make([]byte, 8) }

// ChainCost implements Personality: the console's user logic costs no
// fabric time.
func (d *ConsoleDevice) ChainCost(q int, data []byte, writable int) sim.Duration { return 0 }

// HandleDriverChain implements Personality for the console TX queue.
func (d *ConsoleDevice) HandleDriverChain(q int, data []byte, writable int) []byte {
	if q != ConsoleQueueTX {
		return nil
	}
	out := d.opt.Handler.HandleBytes(append([]byte{}, data...))
	if len(out) > 0 {
		d.outbox = append(d.outbox, out)
		d.outC.Broadcast()
	}
	return nil
}

func (d *ConsoleDevice) userLoop(p *sim.Proc) {
	for {
		for len(d.outbox) == 0 {
			d.outC.Wait(p)
		}
		data := d.outbox[0]
		d.outbox = d.outbox[1:]
		if err := d.ctrl.Deliver(p, ConsoleQueueRX, data); err != nil {
			panic("vdev: console: " + err.Error())
		}
	}
}
