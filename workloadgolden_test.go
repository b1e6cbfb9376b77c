package fpgavirtio_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"fpgavirtio"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// The four perfbench workload configurations are pinned at a small
// packet count by two digests per arm: one over everything the run
// produced in simulated time (RTT samples, stream results, registry
// snapshots, bus and fault counts) and one over its event trace. The
// replay fingerprint covers window-1 irq and poll pings without faults;
// these arms add streams, the packed ring, event-index suppression,
// batched signalling and the chaos fault plan on both stacks. Two more
// arms pin the stream paths no workload takes: XDMA streams (irq and
// poll; window 1, a full descriptor list and a ragged last batch) and
// split-ring VirtIO streams at windows 1 and 16. The
// digested run is watched by an event tracer and a verbose span
// recorder; each arm then runs again with neither and must reach the
// same state digest, since watching a run must not change it. Both the
// default build and -tags simrefqueue must match the same file.
// Regenerate with
//
//	go test -run TestWorkloadDigestGolden -update .
const workloadGoldenFile = "testdata/workload_digests.golden"

const workloadGoldenSeed = 5

// workloadSizes is the payload cycle of the window-1 arms.
var workloadSizes = []int{64, 128, 256, 512, 1024}

// hashTracer feeds every executed event into a hash.
type hashTracer struct{ h hash.Hash }

func (t hashTracer) Event(at sim.Time, name string) { fmt.Fprintf(t.h, "%d %s\n", int64(at), name) }

// workloadArm is one configuration run under the golden.
type workloadArm struct {
	name string
	run  func(t *testing.T, a *armDigest)
}

// armDigest accumulates one arm's two digests. An unwatched run has
// no trace digest.
type armDigest struct {
	state, trace hash.Hash
}

// session is what the arms read back from an opened session.
type session interface {
	Registry() *telemetry.Registry
	BusStats() fpgavirtio.BusStats
	FaultSummary() map[string]int64
	SetSimTracer(sim.Tracer)
	SetSimSpanSink(func(*sim.SpanKinds) sim.SpanSink)
}

// watch installs the event tracer and a verbose span recorder on a
// watched run's session.
func (a *armDigest) watch(b session) {
	if a.trace == nil {
		return
	}
	b.SetSimTracer(hashTracer{a.trace})
	b.SetSimSpanSink(func(k *sim.SpanKinds) sim.SpanSink { return telemetry.NewRecorder(k, 0) })
}

func (a *armDigest) sample(i int, s fpgavirtio.RTTSample) {
	fmt.Fprintf(a.state, "rtt %d %d %d %d %d\n", i, s.Total, s.Hardware, s.RespGen, s.Software)
}

// session hashes a session's registry snapshot, bus counters and fault
// counts, and reports the total number of injected faults.
func (a *armDigest) session(stack string, b session) int64 {
	for _, m := range b.Registry().Snapshot() {
		fmt.Fprintf(a.state, "%s m %s %s %v %d %v %v\n", stack, m.Name, m.Type, m.Value, m.Count, m.Sum, m.Buckets)
	}
	fmt.Fprintf(a.state, "%s bus %+v\n", stack, b.BusStats())
	faults := b.FaultSummary()
	classes := make([]string, 0, len(faults))
	for c := range faults {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var total int64
	for _, c := range classes {
		fmt.Fprintf(a.state, "%s fault %s=%d\n", stack, c, faults[c])
		total += faults[c]
	}
	return total
}

func workloadPayload(size int) []byte {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i*7 + size)
	}
	return buf
}

// stream runs one stream on a session and hashes its result, per-packet
// samples included.
func stream(t *testing.T, a *armDigest, run func(fpgavirtio.StreamConfig) (fpgavirtio.StreamResult, error), cfg fpgavirtio.StreamConfig) {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != cfg.Packets || res.Drops != 0 {
		t.Fatalf("stream window %d: %d packets, %d drops", cfg.Window, res.Packets, res.Drops)
	}
	fmt.Fprintf(a.state, "stream %+v\n", res)
}

func openNet(t *testing.T, a *armDigest, cfg fpgavirtio.NetConfig) *fpgavirtio.NetSession {
	t.Helper()
	ns, err := fpgavirtio.OpenNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.watch(ns)
	return ns
}

func openXDMA(t *testing.T, a *armDigest, cfg fpgavirtio.XDMAConfig) *fpgavirtio.XDMASession {
	t.Helper()
	xs, err := fpgavirtio.OpenXDMA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.watch(xs)
	return xs
}

var workloadArms = []workloadArm{
	{"net-irq", func(t *testing.T, a *armDigest) {
		ns := openNet(t, a, fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: workloadGoldenSeed}})
		for _, size := range workloadSizes {
			if err := ns.PingSeries(workloadPayload(size), 40, a.sample); err != nil {
				t.Fatal(err)
			}
		}
		a.session("net", ns)
	}},
	{"xdma-irq", func(t *testing.T, a *armDigest) {
		xs := openXDMA(t, a, fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: workloadGoldenSeed}})
		for _, size := range workloadSizes {
			if err := xs.RoundTripSeries(workloadPayload(size), 40, a.sample); err != nil {
				t.Fatal(err)
			}
		}
		a.session("xdma", xs)
	}},
	{"net-stream", func(t *testing.T, a *armDigest) {
		ns := openNet(t, a, fpgavirtio.NetConfig{
			Config:          fpgavirtio.Config{Seed: workloadGoldenSeed},
			UsePackedRing:   true,
			UseEventIdx:     true,
			TxKickBatch:     8,
			IRQCoalescePkts: 8,
			QueuePairs:      2,
		})
		for i := 0; i < 2; i++ {
			res, err := ns.Stream(fpgavirtio.StreamConfig{Packets: 192, PayloadSize: 1024, Window: 32})
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets != 192 || res.Drops != 0 {
				t.Fatalf("stream %d: %d packets, %d drops", i, res.Packets, res.Drops)
			}
			fmt.Fprintf(a.state, "stream %d %+v\n", i, res)
		}
		a.session("net", ns)
	}},
	{"xdma-stream", func(t *testing.T, a *armDigest) {
		for _, poll := range []bool{false, true} {
			xs := openXDMA(t, a, fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: workloadGoldenSeed, PollMode: poll}})
			for _, window := range []int{1, 16, 7} {
				stream(t, a, xs.Stream, fpgavirtio.StreamConfig{Packets: 96, PayloadSize: 310, Window: window})
			}
			a.session(fmt.Sprintf("xdma poll=%v", poll), xs)
		}
	}},
	{"net-stream-split", func(t *testing.T, a *armDigest) {
		ns := openNet(t, a, fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: workloadGoldenSeed}})
		for _, window := range []int{1, 16} {
			stream(t, a, ns.Stream, fpgavirtio.StreamConfig{Packets: 96, PayloadSize: 256, Window: window})
		}
		a.session("net", ns)
	}},
	{"poll-chaos", func(t *testing.T, a *armDigest) {
		cfg := fpgavirtio.Config{Seed: workloadGoldenSeed, PollMode: true, Faults: experiments.DefaultChaosPlan}
		ns := openNet(t, a, fpgavirtio.NetConfig{Config: cfg})
		xs := openXDMA(t, a, fpgavirtio.XDMAConfig{Config: cfg})
		for round := 0; round < 4; round++ {
			for _, size := range workloadSizes {
				if err := ns.PingSeries(workloadPayload(size), 12, a.sample); err != nil {
					t.Fatal(err)
				}
			}
			for _, size := range workloadSizes {
				if err := xs.RoundTripSeries(workloadPayload(size), 12, a.sample); err != nil {
					t.Fatal(err)
				}
			}
		}
		if netFaults, xdmaFaults := a.session("net", ns), a.session("xdma", xs); netFaults == 0 || xdmaFaults == 0 {
			t.Error("the chaos plan injected no fault on one of the stacks")
		}
	}},
}

func workloadDigests(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, arm := range workloadArms {
		a := &armDigest{state: sha256.New(), trace: sha256.New()}
		arm.run(t, a)
		state := hex.EncodeToString(a.state.Sum(nil))
		fmt.Fprintf(&b, "%s %s %s\n", arm.name, state, hex.EncodeToString(a.trace.Sum(nil)))
		u := &armDigest{state: sha256.New()}
		arm.run(t, u)
		if unwatched := hex.EncodeToString(u.state.Sum(nil)); unwatched != state {
			t.Errorf("%s: state digest %s with a tracer and span sink, %s without: watching changed the run", arm.name, state, unwatched)
		}
	}
	return b.String()
}

func TestWorkloadDigestGolden(t *testing.T) {
	got := workloadDigests(t)
	if t.Failed() {
		return
	}
	if update := flag.Lookup("update"); update != nil && update.Value.String() == "true" {
		if err := os.WriteFile(workloadGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", workloadGoldenFile)
		return
	}
	want, err := os.ReadFile(workloadGoldenFile)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("workload digests diverged from %s:\n got\n%s want\n%s"+
			"If a model change is intentional, regenerate with: go test -run TestWorkloadDigestGolden -update .\n"+
			"If this build used -tags simrefqueue, the calendar queue and the reference heap disagree — a determinism bug.",
			workloadGoldenFile, got, want)
	}
}
