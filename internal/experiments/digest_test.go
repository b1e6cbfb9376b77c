package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"fpgavirtio/internal/telemetry"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata goldens")

// Every index entry is pinned by one digest line: one run at seed 1,
// 500 packets per point and the default payloads. The sweep entries
// share one sweep, attributed as fvbench attributes it. A line hashes
// the entry's artifact JSON, or else the JSON of its result value
// (every duration and rate in full precision, not the rounded Render
// text), followed by the metric snapshot of every point the run holds.
// One more line pins the sweep under DefaultChaosPlan, tail
// attribution and fault summary included. Event traces are not hashed
// here; TestWorkloadDigestGolden in the root package pins them. The
// default, -tags fvinvariants and -tags simrefqueue builds must all
// match the same file. Regenerate with
//
//	go test ./internal/experiments -run TestExperimentDigestGolden -update
const digestGoldenFile = "testdata/experiment_digests.golden"

func digestParams() Params { return Params{Seed: 1, Packets: 500} }

func attributedSweep(t *testing.T, p Params) *Sweep {
	t.Helper()
	sw, err := RunSweepParallel(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttributeTails(sw); err != nil {
		t.Fatal(err)
	}
	return sw
}

// digest hashes a run's artifact, or its result when it has none, and
// the metric snapshots of points.
func digest(t *testing.T, r Result, art *telemetry.BenchArtifact, points []*PointResult) string {
	t.Helper()
	h := sha256.New()
	var err error
	if art != nil {
		err = telemetry.WriteBenchJSON(h, art)
	} else {
		err = json.NewEncoder(h).Encode(r)
	}
	for _, pt := range points {
		if err == nil {
			fmt.Fprintf(h, "metrics %s %s %d\n", pt.Driver, pt.Datapath, pt.Payload)
			err = json.NewEncoder(h).Encode(pt.Metrics)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sweepPoints(sw *Sweep) []*PointResult {
	return append(append([]*PointResult{}, sw.VirtIO...), sw.XDMA...)
}

func experimentDigests(t *testing.T) string {
	p := digestParams()
	sw := attributedSweep(t, p)
	var b strings.Builder
	for _, e := range Index {
		var esw *Sweep
		if e.Sweep {
			esw = sw
		}
		r, art, err := e.Run(p, esw)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if (art != nil) != e.Artifact {
			t.Errorf("%s: artifact %v, the index says %v", e.Name, art != nil, e.Artifact)
		}
		var points []*PointResult
		switch r := r.(type) {
		case *PollTradeStudy:
			points = r.Points
		default:
			if e.Sweep {
				points = sweepPoints(sw)
			}
		}
		fmt.Fprintf(&b, "%s %s\n", e.Name, digest(t, r, art, points))
	}
	chaos := p
	chaos.Faults = DefaultChaosPlan
	csw := attributedSweep(t, chaos)
	art := BuildArtifact("chaos", csw)
	if art.Faults == nil || art.Faults.Total == 0 || len(art.TailAttribution) == 0 {
		t.Errorf("chaos sweep: fault summary %+v, %d tail points", art.Faults, len(art.TailAttribution))
	}
	fmt.Fprintf(&b, "chaos %s\n", digest(t, nil, art, sweepPoints(csw)))
	return b.String()
}

func TestExperimentDigestGolden(t *testing.T) {
	got := experimentDigests(t)
	if t.Failed() {
		return
	}
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", digestGoldenFile)
		return
	}
	raw, err := os.ReadFile(digestGoldenFile)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, _ := strings.Cut(line, " ")
		want[name] = sum
	}
	gotLines := strings.Split(strings.TrimSpace(got), "\n")
	for _, line := range gotLines {
		name, sum, _ := strings.Cut(line, " ")
		if want[name] != sum {
			t.Errorf("%s: digest %s, golden %s", name, sum, want[name])
		}
	}
	if len(want) != len(gotLines) {
		t.Errorf("golden has %d lines, the run %d", len(want), len(gotLines))
	}
	if t.Failed() {
		t.Log("If a model change is intentional, regenerate with: " +
			"go test ./internal/experiments -run TestExperimentDigestGolden -update\n" +
			"If this build used -tags simrefqueue, the calendar queue and the reference heap disagree — a determinism bug.")
	}
}
