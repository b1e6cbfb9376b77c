package vdev_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"fpgavirtio/internal/drivers/virtioblk"
	"fpgavirtio/internal/drivers/virtioconsole"
	"fpgavirtio/internal/drivers/virtionet"
	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/vdev"
	"fpgavirtio/internal/virtio"
)

// runOutcome is everything a run exposes: the executed events, the
// spans, the queue counters, the end clock, the data the host got back
// and what the blocking loops finished.
type runOutcome struct {
	trace  []sim.TraceRecord
	spans  []telemetry.Span
	open   int
	stats  sim.QueueStats
	now    sim.Time
	data   []byte
	counts [3]int // chains, deliveries and echo frames the oracle finished
}

// watchRun attaches a tracer and a span recorder to s, runs it and
// collects what they saw.
func watchRun(t *testing.T, s *sim.Sim, data *[]byte, counts func() (int, int, int)) runOutcome {
	t.Helper()
	tr := &sim.RecordingTracer{}
	rec := telemetry.NewRecorder(s.SpanKinds(), 0)
	s.SetTracer(tr)
	s.SetSpanSink(rec)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := runOutcome{trace: tr.Records, spans: rec.Spans(), open: len(rec.OpenSpans()), stats: s.Stats(), now: s.Now(), data: *data}
	if counts != nil {
		out.counts[0], out.counts[1], out.counts[2] = counts()
	}
	return out
}

// compareRuns fails unless the step machines' run matches the oracle's
// and the oracle's blocking loops did the work: at least want chains,
// deliveries and echo frames.
func compareRuns(t *testing.T, steps, oracle runOutcome, want [3]int) {
	t.Helper()
	if len(oracle.trace) == 0 || len(oracle.spans) == 0 || len(oracle.data) == 0 {
		t.Fatal("the oracle run traced or returned nothing")
	}
	for i, name := range []string{"chains", "deliveries", "echo frames"} {
		if oracle.counts[i] < want[i] {
			t.Fatalf("the blocking loops finished %d %s, want at least %d", oracle.counts[i], name, want[i])
		}
	}
	if !slices.Equal(steps.trace, oracle.trace) {
		n := 0
		for n < len(steps.trace) && n < len(oracle.trace) && steps.trace[n] == oracle.trace[n] {
			n++
		}
		t.Fatalf("trace (%d events) differs from the oracle's (%d events) at event %d", len(steps.trace), len(oracle.trace), n)
	}
	if !reflect.DeepEqual(steps.spans, oracle.spans) || steps.open != oracle.open {
		t.Fatalf("spans (%d, %d open) differ from the oracle's (%d, %d open)", len(steps.spans), steps.open, len(oracle.spans), oracle.open)
	}
	if steps.stats != oracle.stats {
		t.Fatalf("queue stats %+v, oracle %+v", steps.stats, oracle.stats)
	}
	if steps.now != oracle.now {
		t.Fatalf("ends at %v, oracle at %v", steps.now, oracle.now)
	}
	if !bytes.Equal(steps.data, oracle.data) {
		t.Fatal("the host got back other bytes than from the oracle")
	}
}

// netArm is one net-device configuration TestControllerMatchesBlockingLoop
// compares.
type netArm struct {
	name   string
	dev    func(o *vdev.NetOptions)
	drv    func(o *virtionet.Options)
	faults string // fault plan, "" for none
	ctrl   bool   // toggle promiscuous mode through the control queue mid-stream
	burst  int    // echo requests in flight at once after the ping-pong
	metric string // a controller counter the arm must move, "" for none
}

var netArms = []netArm{
	{name: "split"},
	{name: "packed", dev: func(o *vdev.NetOptions) { o.OfferPacked = true },
		drv: func(o *virtionet.Options) { o.WantPacked = true }},
	{name: "eventidx", dev: func(o *vdev.NetOptions) { o.OfferEventIdx = true },
		drv: func(o *virtionet.Options) { o.WantEventIdx = true }, burst: 6,
		metric: telemetry.MetricVdevIRQsSuppressed},
	{name: "coalesce", dev: func(o *vdev.NetOptions) {
		o.QueuePairs, o.IRQCoalescePkts, o.OfferCtrlVQ = 2, 4, true
	}, drv: func(o *virtionet.Options) { o.QueuePairs, o.WantCtrlVQ = 2, true }, burst: 16,
		metric: telemetry.MetricVdevIRQsCoalesced},
	{name: "csum", dev: func(o *vdev.NetOptions) { o.OfferCsum = true },
		drv: func(o *virtionet.Options) { o.WantCsum = true }},
	{name: "ctrlq", dev: func(o *vdev.NetOptions) { o.OfferCtrlVQ = true },
		drv: func(o *virtionet.Options) { o.WantCtrlVQ = true }, ctrl: true},
	{name: "needsreset", faults: "needsreset:every=7:count=1", burst: 4},
}

// runNetArm echoes UDP payloads of several sizes one at a time, then a
// burst of them at once, on the step machines or, with oracle set,
// through the blocking loops. It fails unless the run exercised what
// the arm is for.
func runNetArm(t *testing.T, arm netArm, oracle bool) runOutcome {
	s, h := quietHost(21)
	opt := vdev.NetOptions{MAC: testMAC, Link: pcie.DefaultGen2x2()}
	if arm.dev != nil {
		arm.dev(&opt)
	}
	var counts func() (int, int, int)
	if oracle {
		counts = vdev.UseBlockingLoops(&opt)
	}
	dev := vdev.NewNet(s, h.RC, "vnet0", opt)
	var inj *faults.Injector
	if arm.faults != "" {
		plan, err := faults.Parse(arm.faults)
		if err != nil {
			t.Fatal(err)
		}
		inj = faults.NewInjector(plan, sim.NewRNG(1), telemetry.NewRegistry())
		h.RC.SetFaults(inj)
	}
	st := netstack.New(h, netstack.DefaultCosts())
	var got []byte
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		infos := h.RC.Enumerate(p)
		dopt := virtionet.Options{Name: "eth-fpga", RXBuffers: 64, SuppressTxInterrupts: true}
		if arm.drv != nil {
			arm.drv(&dopt)
		}
		drv, err := virtionet.Probe(p, h, st, infos[0], dopt)
		if err != nil {
			t.Error(err)
			return
		}
		st.AddInterface(drv, netstack.IP(10, 0, 0, 1))
		st.AddRoute(netstack.IP(10, 0, 0, 0), netstack.IP(255, 255, 255, 0), "eth-fpga")
		st.AddARP(netstack.IP(10, 0, 0, 2), testMAC)
		sock, err := st.Bind(4000)
		if err != nil {
			t.Error(err)
			return
		}
		rng := sim.NewRNG(5)
		echo := func(sizes ...int) {
			for _, n := range sizes {
				payload := make([]byte, n)
				rng.Bytes(payload)
				if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
					t.Error(err)
				}
			}
			for range sizes {
				reply, _, _, err := sock.RecvFrom(p)
				if err != nil {
					t.Error(err)
				}
				got = append(got, reply...)
			}
		}
		for i, n := range []int{18, 64, 256, 1024, 1400, 64, 512} {
			echo(n)
			if arm.ctrl && i == 2 {
				if err := drv.SetPromiscuous(p, true); err != nil {
					t.Error(err)
				}
			}
		}
		burst := make([]int, arm.burst)
		for i := range burst {
			burst[i] = 64 + 80*i
		}
		echo(burst...)
		p.Sleep(sim.Us(50)) // past any coalesce timer
	})
	out := watchRun(t, s, &got, counts)
	switch {
	case arm.metric != "" && h.RC.Metrics().Counter(arm.metric).Value() == 0:
		t.Fatalf("%s stayed 0", arm.metric)
	case inj != nil && inj.Total() == 0:
		t.Fatal("the fault plan injected nothing")
	case arm.ctrl && !dev.Promiscuous():
		t.Fatal("the control command did not reach the device")
	}
	return out
}

// runBlk writes, flushes and reads back sectors and makes an
// out-of-range read, on the step machines or through the blocking
// loops.
func runBlk(t *testing.T, oracle bool) runOutcome {
	s, h := quietHost(22)
	opt := vdev.BlkOptions{Link: pcie.DefaultGen2x2(), CapacitySectors: 64}
	var counts func() (int, int, int)
	if oracle {
		counts = vdev.UseBlockingLoops(&opt)
	}
	vdev.NewBlk(s, h.RC, "vblk0", opt)
	var got []byte
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		blk, err := virtioblk.Probe(p, h, h.RC.Enumerate(p)[0])
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 3*virtio.BlkSectorSize)
		sim.NewRNG(6).Bytes(data)
		if err := blk.WriteSectors(p, 5, data); err != nil {
			t.Error(err)
		}
		if err := blk.Flush(p); err != nil {
			t.Error(err)
		}
		back, err := blk.ReadSectors(p, 4, 4)
		if err != nil {
			t.Error(err)
		}
		got = append(got, back...)
		if _, err := blk.ReadSector(p, 500); err == nil {
			t.Error("out-of-range read succeeded")
		}
	})
	return watchRun(t, s, &got, counts)
}

// runConsole echoes messages through the console, whose user loop
// delivers through Controller.Deliver.
func runConsole(t *testing.T, oracle bool) runOutcome {
	s, h := quietHost(23)
	opt := vdev.ConsoleOptions{Link: pcie.DefaultGen2x2()}
	var counts func() (int, int, int)
	if oracle {
		counts = vdev.UseBlockingLoops(&opt)
	}
	vdev.NewConsole(s, h.RC, "vcon0", opt)
	var got []byte
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		con, err := virtioconsole.Probe(p, h, h.RC.Enumerate(p)[0])
		if err != nil {
			t.Error(err)
			return
		}
		for _, msg := range []string{"hello", "fpga console", "third message"} {
			if err := con.Write(p, []byte(msg)); err != nil {
				t.Error(err)
			}
			back, err := con.Read(p)
			if err != nil {
				t.Error(err)
			}
			got = append(got, back...)
		}
	})
	return watchRun(t, s, &got, counts)
}

// TestControllerMatchesBlockingLoop: the queue engines, deliveries and
// net user logic give the same event trace, spans, queue counters, end
// clock and data as step machines as through the blocking loops they
// replaced — on split and packed rings, with EVENT_IDX, with interrupt
// coalescing over two queue pairs, with checksum offload, around a
// control-queue command and across an injected DEVICE_NEEDS_RESET, and
// for block and console requests. Each oracle run must have finished
// its chains, deliveries and echo frames in the blocking loops.
func TestControllerMatchesBlockingLoop(t *testing.T) {
	for _, arm := range netArms {
		t.Run(arm.name, func(t *testing.T) {
			compareRuns(t, runNetArm(t, arm, false), runNetArm(t, arm, true), [3]int{7, 7, 7})
		})
	}
	t.Run("blk", func(t *testing.T) {
		compareRuns(t, runBlk(t, false), runBlk(t, true), [3]int{3, 0, 0})
	})
	t.Run("console", func(t *testing.T) {
		compareRuns(t, runConsole(t, false), runConsole(t, true), [3]int{3, 3, 0})
	})
}
