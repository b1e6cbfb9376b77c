package fpgavirtio_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"fpgavirtio"
	"fpgavirtio/internal/experiments"
	"fpgavirtio/internal/telemetry"
)

// The flight recorder's post-mortem dumps are pinned by one digest: the
// JSON of FlightDumps plus the Chrome trace DumpSpans renders from each
// dump, for one net and one XDMA session under the chaos plan. Any
// change to what the recorder captures, in what order, or how a dump
// decodes moves the hash. Regenerate with
//
//	go test -run TestFlightDumpGolden -update .
const flightGoldenFile = "testdata/flight_dumps.golden"

// flightGoldenRounds is enough round trips, at flightGoldenSeed, for
// every chaos class that applies to a stack to fire and recover, and
// for the worst-RTT trigger to land after them.
const (
	flightGoldenSeed   = 11
	flightGoldenRounds = 1200
)

func TestFlightDumpGolden(t *testing.T) {
	h := sha256.New()
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = byte(i*5 + 1)
	}

	ns, err := fpgavirtio.OpenNet(fpgavirtio.NetConfig{Config: fpgavirtio.Config{Seed: flightGoldenSeed, Faults: experiments.DefaultChaosPlan}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.PingSeries(buf, flightGoldenRounds, nil); err != nil {
		t.Fatal(err)
	}
	hashFlightDumps(t, h, "net", ns.FlightDumps(), ns.FaultSummary())

	xs, err := fpgavirtio.OpenXDMA(fpgavirtio.XDMAConfig{Config: fpgavirtio.Config{Seed: flightGoldenSeed, Faults: experiments.DefaultChaosPlan}})
	if err != nil {
		t.Fatal(err)
	}
	if err := xs.RoundTripSeries(buf, flightGoldenRounds, nil); err != nil {
		t.Fatal(err)
	}
	hashFlightDumps(t, h, "xdma", xs.FlightDumps(), xs.FaultSummary())

	got := hex.EncodeToString(h.Sum(nil)) + "\n"
	if update := flag.Lookup("update"); update != nil && update.Value.String() == "true" {
		if err := os.WriteFile(flightGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(flightGoldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("flight dump digest = %s, golden %s", strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}

// hashFlightDumps checks that every injected fault class and the
// worst-RTT trigger left a dump, then feeds the dumps' JSON and their
// Chrome renderings into h.
func hashFlightDumps(t *testing.T, h io.Writer, arm string, dumps []telemetry.FlightDump, injected map[string]int64) {
	t.Helper()
	reasons := map[string]bool{}
	for _, d := range dumps {
		reasons[d.Reason] = true
	}
	if !reasons["worst-rtt"] {
		t.Errorf("%s: no worst-rtt dump", arm)
	}
	for class, n := range injected {
		if n > 0 && !reasons["fault:"+class] {
			t.Errorf("%s: %s fired %d times but left no dump", arm, class, n)
		}
	}
	js, err := json.Marshal(dumps)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte(arm + "\n"))
	h.Write(js)
	for _, d := range dumps {
		var b bytes.Buffer
		if err := telemetry.WriteChromeTrace(&b, telemetry.DumpSpans(d), nil); err != nil {
			t.Fatal(err)
		}
		h.Write([]byte("\n" + d.Reason + "\n"))
		h.Write(b.Bytes())
	}
}
