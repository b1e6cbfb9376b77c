// Package virtioconsole is the virtio-console front-end: the device
// type the prior work [14] demonstrated. It offers blocking Write
// (host-to-device over the transmit queue) and Read (device-to-host
// over pre-posted receive buffers).
package virtioconsole

import (
	"fmt"

	"fpgavirtio/internal/drivers/virtiopci"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/virtio"
)

const (
	queueRX = 0
	queueTX = 1

	rxBufSize = 4096
	rxBufs    = 16
)

// Device is a bound virtio-console.
type Device struct {
	host *hostos.Host

	rxq, txq *virtiopci.VQ
	txBuf    mem.Addr
	rxWQ     *hostos.WaitQueue
	txWQ     *hostos.WaitQueue
	txDone   int // TX completions harvested by the ISR, not yet consumed

	pending [][]byte

	txBytes, rxBytes *telemetry.Counter
	writeSpan        sim.SpanKind
}

type rxTok struct{ addr mem.Addr }

// Probe binds the console driver to an enumerated device.
func Probe(p *sim.Proc, h *hostos.Host, info *pcie.DeviceInfo) (*Device, error) {
	tr, err := virtiopci.Probe(p, h, info)
	if err != nil {
		return nil, err
	}
	if info.DeviceID != virtio.DeviceConsole.PCIDeviceID() {
		return nil, fmt.Errorf("virtioconsole: not a console device: %#x", info.DeviceID)
	}
	if _, err := tr.Negotiate(p, 0); err != nil {
		return nil, err
	}
	d := &Device{
		host:    h,
		rxWQ:    h.NewWaitQueue("console.rx"),
		txWQ:    h.NewWaitQueue("console.tx"),
		txBytes: h.Metrics().Counter(telemetry.MetricVirtioconsoleTxBytes),
		rxBytes: h.Metrics().Counter(telemetry.MetricVirtioconsoleRxBytes),

		writeSpan: h.Sim.SpanKind(telemetry.LayerDriver, "", "console.write"),
	}
	if d.rxq, err = tr.SetupQueue(p, queueRX, 64); err != nil {
		return nil, err
	}
	if d.txq, err = tr.SetupQueue(p, queueTX, 64); err != nil {
		return nil, err
	}
	d.rxq.RegisterIRQ(d.onRxIRQ)
	d.txq.RegisterIRQ(d.onTxIRQ)
	d.txBuf = tr.AllocBuffer(rxBufSize)
	for i := 0; i < rxBufs; i++ {
		a := tr.AllocBuffer(rxBufSize)
		if err := d.rxq.AddChain(p, []virtio.BufSeg{{Addr: a, Len: rxBufSize, DeviceWritten: true}}, rxTok{a}); err != nil {
			return nil, err
		}
	}
	d.rxq.Kick(p)
	tr.DriverOK(p)
	return d, nil
}

func (d *Device) onRxIRQ(p *sim.Proc) {
	d.host.CPUWork(p, sim.Ns(250))
	for _, u := range d.rxq.Harvest(p) {
		tok := u.Token.(rxTok)
		data := d.host.Mem.Read(tok.addr, u.Written)
		d.pending = append(d.pending, data)
		if err := d.rxq.AddChain(p, []virtio.BufSeg{{Addr: tok.addr, Len: rxBufSize, DeviceWritten: true}}, tok); err != nil {
			panic("virtioconsole: repost: " + err.Error())
		}
	}
	d.rxq.Kick(p)
	d.rxWQ.Wake()
}

func (d *Device) onTxIRQ(p *sim.Proc) {
	d.host.CPUWork(p, sim.Ns(250))
	d.txDone += len(d.txq.Harvest(p))
	d.txWQ.Wake()
}

// Write sends bytes to the device, blocking until the device consumed
// them (the hvc console's flow-controlled put_chars path).
func (d *Device) Write(p *sim.Proc, data []byte) error {
	if len(data) > rxBufSize {
		return fmt.Errorf("virtioconsole: write too large: %d", len(data))
	}
	sp := p.Sim().BeginSpan(d.writeSpan)
	defer sp.End()
	d.host.SyscallEnter(p)
	d.host.Copy(p, len(data))
	d.host.Mem.Write(d.txBuf, data)
	d.txBytes.Add(int64(len(data)))
	if err := d.txq.AddChain(p, []virtio.BufSeg{{Addr: d.txBuf, Len: len(data)}}, "tx"); err != nil {
		d.host.SyscallExit(p)
		return err
	}
	d.txq.Kick(p)
	for d.txDone == 0 {
		d.txWQ.Wait(p)
	}
	d.txDone--
	d.host.SyscallExit(p)
	return nil
}

// Read blocks until the device delivers bytes, then returns them.
func (d *Device) Read(p *sim.Proc) ([]byte, error) {
	d.host.SyscallEnter(p)
	for len(d.pending) == 0 {
		d.rxWQ.Wait(p)
	}
	out := d.pending[0]
	d.pending = d.pending[1:]
	d.rxBytes.Add(int64(len(out)))
	d.host.Copy(p, len(out))
	d.host.SyscallExit(p)
	return out, nil
}
