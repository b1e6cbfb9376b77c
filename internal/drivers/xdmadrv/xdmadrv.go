// Package xdmadrv is the vendor reference character-device driver for
// the XDMA IP, with the structure of the Xilinx dma_ip_drivers code the
// paper benchmarks: per-channel bounce buffers and descriptor lists, an
// engine start per I/O (descriptor address programming plus control
// writes), a completion interrupt whose ISR reads the engine's
// read-clear status register, and read()/write() file operations that
// block the caller until the DMA finishes.
//
// This per-operation descriptor exchange — rebuilt and re-programmed on
// every transfer — is the design-philosophy contrast to VirtIO's
// share-the-rings-once model that the paper analyses in §IV-A.
package xdmadrv

import (
	"fmt"

	"fpgavirtio/internal/fvassert"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/mem"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/xdmaip"
)

// Driver CPU costs (engine programming and completion handling),
// following the reference driver's per-transfer work: transfer_init,
// dma_map_single + descriptor assembly, engine_start (which also reads
// the engine's status register before setting Run), ISR engine
// service, and transfer teardown with unmap.
const (
	descBuildCost  = sim.Duration(2000) * sim.Nanosecond // transfer init + dma_map + desc build
	descChainCost  = sim.Duration(300) * sim.Nanosecond  // each additional descriptor in a list
	submitCost     = sim.Duration(1000) * sim.Nanosecond // engine_start bookkeeping
	isrBodyCost    = sim.Duration(1000) * sim.Nanosecond // xdma_isr + engine service
	completionCost = sim.Duration(2800) * sim.Nanosecond // teardown, unmap, wait-list processing
)

// MaxTransfer is the per-call transfer limit of the bounce buffers.
const MaxTransfer = 1 << 20

// MaxBatchDescs bounds one chained descriptor list (the size of the
// driver's descriptor-ring allocation per channel).
const MaxBatchDescs = 256

// Recovery tuning, active only when the endpoint has a fault injector
// armed (the zero-fault submit path takes none of these branches).
const (
	// maxResubmits bounds the retry loop of a failing transfer.
	maxResubmits = 5
	// resubmitBackoff is the base delay before a resubmission; it
	// doubles per attempt.
	resubmitBackoff = sim.Duration(2) * sim.Microsecond
)

// xferTimeout is the completion watchdog deadline for an n-byte
// transfer: generous fixed slack plus a per-byte term, so a slow large
// transfer is never mistaken for a lost one.
func xferTimeout(n int) sim.Duration {
	return sim.Ms(1) + sim.Duration(n)*20*sim.Nanosecond
}

// Options selects optional driver behaviours at probe time.
type Options struct {
	// PollMode runs the driver without completion interrupts: channel
	// IRQs stay disabled in the IRQ block and every submit programs the
	// engine's poll-mode writeback (CtrlPollModeWB), then busy-spins on
	// the 4-byte status word the engine DMA-writes into host memory.
	// This is the poll_mode=1 variant of the reference driver.
	PollMode bool

	// blockingISR, set only by tests, is registered in place of the
	// step-form channel ISR, as the blocking handler it is checked
	// against.
	blockingISR func(ch *channelState, p *sim.Proc)
}

// Driver is a bound XDMA function exposing H2C and C2H device nodes.
type Driver struct {
	host *hostos.Host
	ep   *pcie.Endpoint
	bar1 uint64
	opt  Options

	// spinner drives poll-mode completion waits (nil in interrupt mode).
	spinner *hostos.Spinner

	h2c *channelState
	c2h *channelState

	// CardOffset is where transfers land in / come from card memory.
	CardOffset uint64

	// Recovery counters, registered only when fault injection is armed.
	recResets, recWatchdog, recResubmits *telemetry.Counter
}

type channelState struct {
	drv      *Driver
	name     string
	h2c      bool
	chanBase uint64
	sgdma    uint64

	buf      mem.Addr // bounce buffer
	descList mem.Addr // chained descriptor ring, one entry per segment
	// wbSlot is the poll-mode writeback word (own cache line); wbDone
	// is the spin probe over it, bound once at probe so the
	// steady-state poll path does not allocate.
	wbSlot   mem.Addr
	wbDone   func() bool
	wq       *hostos.WaitQueue
	complete bool
	busy     bool
	// errSeen records a StatusDescError observed by the ISR; timedOut
	// records a completion-watchdog expiry. Both only change under
	// fault injection.
	errSeen  bool
	timedOut bool

	Transfers int

	span                   sim.SpanKind
	transfers, bytes, irqs *telemetry.Counter
}

// Probe binds the driver to an enumerated XDMA function with the given
// options and registers its character devices as /dev/<name>_h2c_0 and
// /dev/<name>_c2h_0.
func Probe(p *sim.Proc, h *hostos.Host, info *pcie.DeviceInfo, name string, opt Options) (*Driver, error) {
	if info.VendorID != xdmaip.XilinxVendorID || info.DeviceID != xdmaip.XDMADeviceID {
		return nil, fmt.Errorf("xdmadrv: not an XDMA function: %04x:%04x", info.VendorID, info.DeviceID)
	}
	d := &Driver{host: h, ep: info.EP, bar1: info.BAR[1], opt: opt}
	if opt.PollMode {
		d.spinner = h.NewSpinner()
	}
	d.h2c = d.newChannel(p, name+"_h2c_0", true, xdmaip.H2CChannelBase, xdmaip.H2CSGDMABase, xdmaip.VecH2C)
	d.c2h = d.newChannel(p, name+"_c2h_0", false, xdmaip.C2HChannelBase, xdmaip.C2HSGDMABase, xdmaip.VecC2H)

	if opt.PollMode {
		// No completion interrupts: the IRQ block's channel enables stay
		// 0, so the engines never raise VecH2C/VecC2H and the critical
		// path carries no irq-layer time at all.
		h.RC.MMIOWrite(p, d.bar1+xdmaip.IRQBlockBase+xdmaip.RegIRQChanEnable, 4, 0)
	} else {
		// Enable both channel interrupts in the IRQ block.
		h.RC.MMIOWrite(p, d.bar1+xdmaip.IRQBlockBase+xdmaip.RegIRQChanEnable, 4, 0x3)
	}

	if d.ep.Faults() != nil {
		reg := h.Metrics()
		d.recResets = reg.Counter(telemetry.MetricRecoveryXDMAResets)
		d.recWatchdog = reg.Counter(telemetry.MetricRecoveryXDMAWatchdog)
		d.recResubmits = reg.Counter(telemetry.MetricRecoveryXDMAResubmits)
	}

	h.RegisterCharDev("/dev/"+d.h2c.name, d.h2c)
	h.RegisterCharDev("/dev/"+d.c2h.name, d.c2h)
	return d, nil
}

func (d *Driver) newChannel(p *sim.Proc, name string, h2c bool, chanBase, sgdma uint64, vector int) *channelState {
	reg := d.host.Metrics()
	dir := "c2h"
	if h2c {
		dir = "h2c"
	}
	ch := &channelState{
		drv:       d,
		name:      name,
		h2c:       h2c,
		chanBase:  chanBase,
		sgdma:     sgdma,
		buf:       d.host.Alloc.Alloc(MaxTransfer, 4096),
		descList:  d.host.Alloc.Alloc(MaxBatchDescs*xdmaip.DescSize, 32),
		wq:        d.host.NewWaitQueue(name),
		span:      d.host.Sim.SpanKind(telemetry.LayerDriver, "", "xdma."+dir),
		transfers: reg.Counter(telemetry.MetricXDMATransfers(dir)),
		bytes:     reg.Counter(telemetry.MetricXDMABytes(dir)),
		irqs:      reg.Counter(telemetry.MetricXDMAIRQs(dir)),
	}
	if d.opt.blockingISR != nil {
		d.host.RegisterIRQ(d.ep, vector, func(p *sim.Proc) { d.opt.blockingISR(ch, p) })
	} else {
		d.host.RegisterIRQSteps(d.ep, vector, ch.isr)
	}
	if d.opt.PollMode {
		// One writeback word per channel on its own cache line, plus the
		// one-time programming of the engine's writeback address.
		ch.wbSlot = d.host.Alloc.Alloc(64, 64)
		ch.wbDone = func() bool {
			return d.host.Mem.U32(ch.wbSlot)&xdmaip.WbDone != 0
		}
		d.host.RC.MMIOWrite(p, d.bar1+chanBase+xdmaip.RegPollWbLo, 4, uint64(uint32(ch.wbSlot)))
		d.host.RC.MMIOWrite(p, d.bar1+chanBase+xdmaip.RegPollWbHi, 4, uint64(ch.wbSlot)>>32)
	}
	return ch
}

// NoteDataRetry records a session-level end-to-end retry (a round trip
// whose data integrity check failed under fault injection and was
// reissued). Callers must only invoke it with fault injection armed.
func (d *Driver) NoteDataRetry() { d.recResubmits.Inc() }

// H2CStats and C2HStats report per-channel transfer counts.
func (d *Driver) H2CStats() int { return d.h2c.Transfers }

// C2HStats reports completed card-to-host transfers.
func (d *Driver) C2HStats() int { return d.c2h.Transfers }

// Where the channel ISR's step resumes.
const (
	isrEnter  = iota // count the interrupt
	isrBody          // charge the handler body, start the status read
	isrStatus        // act on the status
)

// isr is the interrupt handler, a step-form handler: read (and clear)
// engine status, then wake the blocked file operation. An engine-error
// status (never set without fault injection) wakes the waiter with
// errSeen so the submit loop can reset the channel and resubmit.
func (ch *channelState) isr(irq *hostos.IRQ) sim.Duration {
	h := ch.drv.host
	for {
		switch irq.PC {
		case isrEnter:
			ch.irqs.Inc()
			irq.PC = isrBody
		case isrBody:
			if st := h.StepWork(&irq.Work, isrBodyCost); st != 0 {
				return st
			}
			irq.Read = h.RC.BeginMMIORead(ch.drv.bar1+ch.chanBase+xdmaip.RegChanStatus+4, 4)
			irq.PC = isrStatus
			if irq.Read.Await(irq.P) {
				return sim.Blocked
			}
		case isrStatus:
			st := irq.Read.End()
			if st&xdmaip.StatusDescError != 0 {
				ch.errSeen = true
				ch.wq.Wake()
				return 0
			}
			if st&xdmaip.StatusDescComplete != 0 {
				ch.complete = true
				ch.wq.Wake()
			}
			return 0
		}
	}
}

// submit programs the engine for a descriptor (or descriptor list) of
// n total bytes and blocks until completion. Without fault injection
// it is exactly the reference driver's engine start and bare wait;
// with faults armed a failed or lost run is retried after a channel
// reset with bounded exponential backoff. Resubmission is idempotent:
// the descriptors, bounce buffer, and card addresses are unchanged.
func (ch *channelState) submit(p *sim.Proc, descAddr mem.Addr, n int) error {
	d := ch.drv
	faulted := d.ep.Faults() != nil
	for attempt := 0; ; attempt++ {
		// Program the engine: the reference driver first reads the engine
		// status (a non-posted round trip), then writes the descriptor
		// address (lo/hi/adjacent) and the control register with Run +
		// interrupt enables.
		d.host.CPUWork(p, submitCost)
		d.host.RC.MMIORead(p, d.bar1+ch.chanBase+xdmaip.RegChanStatus, 4)
		d.host.RC.MMIOWrite(p, d.bar1+ch.sgdma+xdmaip.RegDescLo, 4, uint64(uint32(descAddr)))
		d.host.RC.MMIOWrite(p, d.bar1+ch.sgdma+xdmaip.RegDescHi, 4, uint64(descAddr)>>32)
		d.host.RC.MMIOWrite(p, d.bar1+ch.sgdma+xdmaip.RegDescAdj, 4, 0)
		ch.complete = false
		ch.errSeen = false
		if d.opt.PollMode {
			// Clear the writeback word, then start the run with poll-mode
			// writeback instead of the interrupt enables.
			d.host.Mem.PutU32(ch.wbSlot, 0)
			d.host.RC.MMIOWrite(p, d.bar1+ch.chanBase+xdmaip.RegChanControl, 4,
				xdmaip.CtrlRun|xdmaip.CtrlPollModeWB)
			if ch.pollAwait(p, n, faulted) {
				return nil
			}
		} else {
			d.host.RC.MMIOWrite(p, d.bar1+ch.chanBase+xdmaip.RegChanControl, 4,
				xdmaip.CtrlRun|xdmaip.CtrlIEDescComplete|xdmaip.CtrlIEDescStopped)

			if !faulted {
				// Block until the completion interrupt.
				for !ch.complete {
					ch.wq.Wait(p)
				}
				return nil
			}
			if ch.await(p, n) {
				return nil
			}
		}
		// Engine error or lost run: reset the channel (clear Run) and
		// resubmit after a backoff.
		d.host.RC.MMIOWrite(p, d.bar1+ch.chanBase+xdmaip.RegChanControl, 4, 0)
		d.recResets.Inc()
		if attempt >= maxResubmits {
			return fmt.Errorf("xdmadrv: %s: transfer failed after %d resubmits", ch.name, attempt)
		}
		p.Sleep(resubmitBackoff << uint(attempt))
		d.recResubmits.Inc()
	}
}

// await blocks for the transfer outcome under a completion watchdog.
// It reports true when the transfer completed (including completions
// whose interrupt was lost, recovered via the status mirror) and false
// when the channel needs a reset and resubmit.
func (ch *channelState) await(p *sim.Proc, n int) bool {
	d := ch.drv
	for {
		ch.timedOut = false
		ev := d.host.Sim.After(xferTimeout(n), ch.name+".watchdog", func() {
			if fvassert.Enabled && !ch.busy {
				fvassert.Failf("xdmadrv: %s: watchdog fired with no transfer in flight", ch.name)
			}
			if ch.complete {
				// Completion raced the timer arm; never escalate a
				// finished transfer.
				return
			}
			ch.timedOut = true
			ch.wq.Wake()
		})
		for !ch.complete && !ch.errSeen && !ch.timedOut {
			ch.wq.Wait(p)
		}
		ev.Cancel()
		if ch.complete {
			return true
		}
		if ch.errSeen {
			return false
		}
		// Watchdog expiry: triage through the engine's status mirror.
		d.recWatchdog.Inc()
		st := d.host.RC.MMIORead(p, d.bar1+ch.chanBase+xdmaip.RegChanStatus+4, 4)
		switch {
		case st == 1<<32-1:
			// Poisoned/stalled readback: assume the worst and resubmit.
			return false
		case st&xdmaip.StatusDescError != 0:
			return false
		case st&xdmaip.StatusDescComplete != 0:
			// The transfer finished but its interrupt was lost.
			ch.complete = true
			return true
		case st&xdmaip.StatusBusy != 0:
			// An honestly slow transfer: keep waiting.
			continue
		default:
			// The engine never started — the Run write was lost.
			return false
		}
	}
}

// pollAwait spins on the channel's poll-writeback word until the
// engine reports the run's outcome, charging spin and yield costs
// through the driver's spinner. It reports true when the transfer
// completed and false when the channel needs a reset and resubmit.
//
// Without fault injection the writeback always arrives and its error
// bit never sets, so the wait is a bare spin on the pre-bound
// predicate (allocation-free). With faults armed the writeback itself
// can be lost or the run can fail, so deadline triage rides the
// spinner's yield slots: past the watchdog deadline the loop reads the
// engine's status mirror and applies the same triage the interrupt
// watchdog does — no timer, no interrupt, just the poll loop noticing.
//
// The writeback word's done bit is the spin probe on both paths: the
// faulted predicate reports true early only on an outcome its own
// yield hook settled, which the spinner checks right after the hook.
func (ch *channelState) pollAwait(p *sim.Proc, n int, faulted bool) bool {
	d := ch.drv
	if !faulted {
		d.spinner.Spin(p, ch.wbDone, nil, nil)
		return true
	}
	outcome := 0 // 0 spinning, >0 complete, <0 reset-and-resubmit
	deadline := p.Now().Add(xferTimeout(n))
	d.spinner.Spin(p, ch.wbDone, func(p *sim.Proc) bool {
		if outcome != 0 {
			return true
		}
		wb := d.host.Mem.U32(ch.wbSlot)
		if wb&xdmaip.WbDone == 0 {
			return false
		}
		if wb&xdmaip.WbErr != 0 {
			outcome = -1
		} else {
			outcome = 1
		}
		return true
	}, func(p *sim.Proc) {
		if outcome != 0 || p.Now() < deadline {
			return
		}
		d.recWatchdog.Inc()
		st := d.host.RC.MMIORead(p, d.bar1+ch.chanBase+xdmaip.RegChanStatus+4, 4)
		switch {
		case st == 1<<32-1:
			// Poisoned/stalled readback: assume the worst and resubmit.
			outcome = -1
		case st&xdmaip.StatusDescError != 0:
			outcome = -1
		case st&xdmaip.StatusDescComplete != 0:
			// The run finished but its writeback never landed.
			outcome = 1
		case st&xdmaip.StatusBusy != 0:
			// An honestly slow transfer: extend the deadline, keep spinning.
			deadline = p.Now().Add(xferTimeout(n))
		default:
			// The engine never started — the Run write was lost.
			outcome = -1
		}
	})
	return outcome > 0
}

// xferSeg is one entry of a chained descriptor list: n bytes between
// bounce-buffer offset off and card address card.
type xferSeg struct {
	card uint64
	off  int
	n    int
}

// transferList runs one blocking DMA over a chained descriptor list:
// one engine start, one completion interrupt, and one teardown for the
// whole list, against descBuildCost + (len-1)·descChainCost of CPU
// work. It is the channel's only submission path: read() and write()
// submit a one-entry list, the way the reference driver builds a
// descriptor list per transfer, and the streaming benchmark's batches
// pipeline longer ones through the engine.
func (ch *channelState) transferList(p *sim.Proc, segs []xferSeg) error {
	if len(segs) == 0 || len(segs) > MaxBatchDescs {
		return fmt.Errorf("xdmadrv: %s: invalid descriptor list length %d", ch.name, len(segs))
	}
	total := 0
	for _, s := range segs {
		if s.n <= 0 || s.off < 0 || s.off+s.n > MaxTransfer {
			return fmt.Errorf("xdmadrv: %s: invalid segment off=%d len=%d", ch.name, s.off, s.n)
		}
		total += s.n
	}
	if ch.busy {
		return fmt.Errorf("xdmadrv: %s: channel busy", ch.name)
	}
	ch.busy = true
	defer func() { ch.busy = false }()
	d := ch.drv
	sp := d.host.Sim.BeginSpan(ch.span)
	defer sp.End()

	// Build the chained list in host memory; extra descriptors amortize
	// against the first one's full transfer-init cost.
	d.host.CPUWork(p, descBuildCost)
	if len(segs) > 1 {
		d.host.CPUWork(p, sim.Duration(len(segs)-1)*descChainCost)
	}
	for i, s := range segs {
		slot := ch.descList + mem.Addr(i*xdmaip.DescSize)
		desc := xdmaip.Descriptor{
			Control: xdmaip.DescCompleted | xdmaip.DescEOP,
			Len:     uint32(s.n),
		}
		if i == len(segs)-1 {
			desc.Control |= xdmaip.DescStop
		} else {
			desc.Next = uint64(slot) + xdmaip.DescSize
		}
		if ch.h2c {
			desc.Src = uint64(ch.buf) + uint64(s.off)
			desc.Dst = s.card
		} else {
			desc.Src = s.card
			desc.Dst = uint64(ch.buf) + uint64(s.off)
		}
		desc.Encode(d.host.Mem, slot)
	}

	// Program the engine once for the whole list.
	if err := ch.submit(p, ch.descList, total); err != nil {
		return err
	}

	d.host.RC.MMIOWrite(p, d.bar1+ch.chanBase+xdmaip.RegChanControl, 4, 0)
	d.host.CPUWork(p, completionCost)
	ch.Transfers++
	ch.transfers.Inc()
	ch.bytes.Add(int64(total))
	return nil
}

// Write implements hostos.CharDev for the H2C node: copy_from_user
// into the bounce buffer, then DMA host-to-card through a one-entry
// descriptor list.
func (ch *channelState) Write(p *sim.Proc, data []byte) (int, error) {
	if !ch.h2c {
		return 0, fmt.Errorf("xdmadrv: %s: write on C2H node", ch.name)
	}
	if len(data) > MaxTransfer {
		return 0, fmt.Errorf("xdmadrv: transfer too large: %d", len(data))
	}
	ch.drv.host.Copy(p, len(data))
	ch.drv.host.Mem.Write(ch.buf, data)
	seg := [1]xferSeg{{card: ch.drv.CardOffset, n: len(data)}}
	if err := ch.transferList(p, seg[:]); err != nil {
		return 0, err
	}
	return len(data), nil
}

// Read implements hostos.CharDev for the C2H node: DMA card-to-host
// through a one-entry descriptor list, then copy_to_user.
func (ch *channelState) Read(p *sim.Proc, buf []byte) (int, error) {
	if ch.h2c {
		return 0, fmt.Errorf("xdmadrv: %s: read on H2C node", ch.name)
	}
	seg := [1]xferSeg{{card: ch.drv.CardOffset, n: len(buf)}}
	if err := ch.transferList(p, seg[:]); err != nil {
		return 0, err
	}
	ch.drv.host.Copy(p, len(buf))
	ch.drv.host.Mem.ReadInto(ch.buf, buf)
	return len(buf), nil
}

// WriteBatch writes every payload host-to-card through one chained
// descriptor list, landing payload i at card address cardBase+i·stride.
// The whole batch shares a single copy_from_user, engine start, and
// completion interrupt.
func (d *Driver) WriteBatch(p *sim.Proc, cardBase uint64, stride int, payloads [][]byte) error {
	ch := d.h2c
	segs := make([]xferSeg, 0, len(payloads))
	off := 0
	for i, b := range payloads {
		if off+len(b) > MaxTransfer {
			return fmt.Errorf("xdmadrv: batch exceeds bounce buffer: %d bytes", off+len(b))
		}
		segs = append(segs, xferSeg{card: cardBase + uint64(i*stride), off: off, n: len(b)})
		off += len(b)
	}
	d.host.Copy(p, off)
	off = 0
	for _, b := range payloads {
		d.host.Mem.Write(ch.buf+mem.Addr(off), b)
		off += len(b)
	}
	return ch.transferList(p, segs)
}

// ReadBatch fills every buffer card-to-host from cardBase+i·stride
// through one chained descriptor list, then a single copy_to_user.
func (d *Driver) ReadBatch(p *sim.Proc, cardBase uint64, stride int, bufs [][]byte) error {
	ch := d.c2h
	segs := make([]xferSeg, 0, len(bufs))
	off := 0
	for i, b := range bufs {
		if off+len(b) > MaxTransfer {
			return fmt.Errorf("xdmadrv: batch exceeds bounce buffer: %d bytes", off+len(b))
		}
		segs = append(segs, xferSeg{card: cardBase + uint64(i*stride), off: off, n: len(b)})
		off += len(b)
	}
	if err := ch.transferList(p, segs); err != nil {
		return err
	}
	d.host.Copy(p, off)
	off = 0
	for _, b := range bufs {
		d.host.Mem.ReadInto(ch.buf+mem.Addr(off), b)
		off += len(b)
	}
	return nil
}
