package virtionet_test

import (
	"bytes"
	"slices"
	"testing"

	"fpgavirtio/internal/drivers/virtionet"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/faults"
	"fpgavirtio/internal/hostos"
	"fpgavirtio/internal/netstack"
	"fpgavirtio/internal/pcie"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
	"fpgavirtio/internal/vdev"
)

// isrArm is one configuration TestIRQHandlersMatchBlocking compares.
type isrArm struct {
	name    string
	dev     func(o *vdev.NetOptions)
	drv     func(o *virtionet.Options)
	packets int
	window  int // echo requests in flight
	size    int // payload bytes, 0 to cycle through 64..1024
}

var isrArms = []isrArm{
	{name: "irq", packets: 400, window: 1},
	// The net-stream configuration: packed ring, EVENT_IDX, kick and
	// IRQ batching of 8, two queue pairs, window 32, 1024 B.
	{name: "stream", packets: 640, window: 32, size: 1024,
		dev: func(o *vdev.NetOptions) {
			o.OfferPacked, o.OfferEventIdx, o.QueuePairs, o.IRQCoalescePkts = true, true, 2, 8
		},
		drv: func(o *virtionet.Options) {
			o.WantPacked, o.WantEventIdx, o.QueuePairs, o.TxKickBatch = true, true, 2, 8
		}},
	{name: "poll", packets: 400, window: 1,
		drv: func(o *virtionet.Options) { o.PollMode = true }},
}

// isrOutcome is what a run exposes: the executed events, the queue
// counters, the application's end clock (-1 when the traffic stalled)
// and the echoed payloads.
type isrOutcome struct {
	trace []sim.TraceRecord
	stats sim.QueueStats
	end   sim.Time
	data  []byte
}

// runISRArm echoes the arm's traffic on a noisy host, under the fault
// plan (none when empty), with the step-form interrupt handlers and RX
// drain or, with oracle set, the blocking bodies they replaced. It
// fails unless the run exercised what it is for.
func runISRArm(t *testing.T, arm isrArm, plan string, oracle bool) isrOutcome {
	t.Helper()
	s := sim.New()
	h := hostos.New(s, 8<<20, hostos.DefaultConfig(), 3)
	reg := h.Metrics()
	var inj *faults.Injector
	if plan != "" {
		fp, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		inj = faults.NewInjector(fp, sim.NewRNG(3).Fork("faults"), reg)
		h.RC.SetFaults(inj)
	}
	devOpt := vdev.NetOptions{Link: pcie.DefaultGen2x2(), MAC: mac, OfferCsum: true, OfferCtrlVQ: true}
	if arm.dev != nil {
		arm.dev(&devOpt)
	}
	vdev.NewNet(s, h.RC, "vnet", devOpt)
	st := netstack.New(h, netstack.DefaultCosts())
	opt := virtionet.DefaultOptions("eth0")
	if arm.drv != nil {
		arm.drv(&opt)
	}
	counts := func() (int, int, int) { return 0, 0, 0 }
	if oracle {
		counts = virtionet.UseBlockingPaths(&opt)
	}
	tr := &sim.RecordingTracer{}
	s.SetTracer(tr)
	var got []byte
	end := sim.Time(-1)
	nrecv := 0
	s.Go("app", func(p *sim.Proc) {
		defer s.Stop()
		d := probe(t, p, h, st, opt)
		sock, err := st.Bind(9300)
		if err != nil {
			t.Error(err)
			return
		}
		recv := func() ([]byte, error) {
			pl, _, _, err := sock.RecvFrom(p)
			return pl, err
		}
		if opt.PollMode {
			pending := func() bool { return sock.Pending() > 0 || d.RxPending() }
			ready := func(p *sim.Proc) bool {
				d.BusyPoll(p)
				return sock.Pending() > 0
			}
			poll := func(p *sim.Proc) { d.Spinner().Spin(p, pending, ready, d.PollYield) }
			recv = func() ([]byte, error) {
				pl, _, _, err := sock.RecvFromPolled(p, poll)
				return pl, err
			}
		}
		rng := sim.NewRNG(9)
		send := func(i int) bool {
			size := arm.size
			if size == 0 {
				size = 64 << (i % 5)
			}
			payload := make([]byte, size)
			rng.Bytes(payload)
			if err := sock.SendTo(p, netstack.IP(10, 0, 0, 2), 9000, payload); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		sent := 0
		for ; sent < arm.window; sent++ {
			if !send(sent) {
				return
			}
		}
		for recvd := 0; recvd < arm.packets; recvd++ {
			if sock.Pending() == 0 {
				d.FlushTx(p)
			}
			pl, err := recv()
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, pl...)
			nrecv++
			if sent < arm.packets {
				if !send(sent) {
					return
				}
				sent++
			}
		}
		end = p.Now()
	})
	s.RunUntil(sim.Time(sim.Ms(200)))
	// A device reset can lose an echo in flight, and the traffic then
	// stalls: under a fault plan the runs are compared up to the
	// deadline once most echoes have come back.
	if end < 0 && (inj == nil || nrecv < arm.packets*9/10) {
		t.Fatalf("the echo traffic stalled after %d of %d echoes", nrecv, arm.packets)
	}
	irqs, rescues, busy := counts()
	switch {
	case oracle && opt.PollMode && busy == 0:
		t.Fatal("the blocking busy-poll drain never ran")
	case oracle && !opt.PollMode && irqs < arm.packets/8:
		t.Fatalf("the blocking handlers took %d interrupts, want at least %d", irqs, arm.packets/8)
	case inj != nil && inj.Total() == 0:
		t.Fatal("the fault plan injected nothing")
	case oracle && inj != nil && arm.name == "irq" && rescues == 0:
		t.Fatal("the watchdog ran no rescue poll")
	case inj != nil && reg.Counter(telemetry.MetricRecoveryVirtioResets).Value() == 0:
		t.Fatal("no device reset was recovered")
	}
	return isrOutcome{trace: tr.Records, stats: s.Stats(), end: end, data: got}
}

// TestIRQHandlersMatchBlocking: the step-form RX, TX and control
// interrupt handlers and the RX drain (NAPI from an interrupt or the
// watchdog's rescue poll, and BusyPoll) give the same event trace,
// queue counters, end clock and echoed data as the blocking bodies
// they replaced, on a noisy host, in the net irq, net-stream and
// busy-poll configurations, clean and under the default chaos plan
// (device resets, dropped interrupts rescued by the watchdog, poisoned
// completions).
func TestIRQHandlersMatchBlocking(t *testing.T) {
	for _, arm := range isrArms {
		for _, plan := range []struct{ name, plan string }{{"clean", ""}, {"chaos", experiments.DefaultChaosPlan}} {
			t.Run(arm.name+"/"+plan.name, func(t *testing.T) {
				steps, oracle := runISRArm(t, arm, plan.plan, false), runISRArm(t, arm, plan.plan, true)
				if !slices.Equal(steps.trace, oracle.trace) {
					n := 0
					for n < len(steps.trace) && n < len(oracle.trace) && steps.trace[n] == oracle.trace[n] {
						n++
					}
					t.Fatalf("trace (%d events) differs from the oracle's (%d events) at event %d", len(steps.trace), len(oracle.trace), n)
				}
				if steps.stats != oracle.stats {
					t.Fatalf("queue stats %+v, oracle %+v", steps.stats, oracle.stats)
				}
				if steps.end != oracle.end {
					t.Fatalf("ends at %v, oracle at %v", steps.end, oracle.end)
				}
				if !bytes.Equal(steps.data, oracle.data) {
					t.Fatal("echoed other bytes than the oracle")
				}
			})
		}
	}
}
