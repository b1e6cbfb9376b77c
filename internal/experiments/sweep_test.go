package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"fpgavirtio/internal/telemetry"
)

// The parallel engine's contract: any worker count produces the same
// Sweep — same samples, same metric snapshots, same serialized
// artifact — as the serial path. These tests run the full grid both
// ways and require byte identity, which is what lets `fvbench
// -parallel=N` stand in for the serial run everywhere.

func sweepParams() Params {
	return Params{Seed: 42, Packets: 40, Payloads: []int{64, 256, 1024}}
}

func requireSamePoints(t *testing.T, label string, a, b []*PointResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d points", label, len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Total.Samples(), b[i].Total.Samples()) {
			t.Errorf("%s[%d]: total series diverged", label, i)
		}
		if !reflect.DeepEqual(a[i].SW.Samples(), b[i].SW.Samples()) ||
			!reflect.DeepEqual(a[i].HW.Samples(), b[i].HW.Samples()) ||
			!reflect.DeepEqual(a[i].RG.Samples(), b[i].RG.Samples()) {
			t.Errorf("%s[%d]: breakdown series diverged", label, i)
		}
		if a[i].Interrupts != b[i].Interrupts {
			t.Errorf("%s[%d]: interrupts %d vs %d", label, i, a[i].Interrupts, b[i].Interrupts)
		}
		if !reflect.DeepEqual(a[i].Metrics, b[i].Metrics) {
			t.Errorf("%s[%d]: metric snapshots diverged", label, i)
		}
	}
}

func TestParallelSweepMatchesSerial(t *testing.T) {
	p := sweepParams()
	serial, err := RunSweepParallel(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweepParallel(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePoints(t, "virtio", serial.VirtIO, parallel.VirtIO)
	requireSamePoints(t, "xdma", serial.XDMA, parallel.XDMA)
}

func TestParallelSweepArtifactBytesIdentical(t *testing.T) {
	p := sweepParams()
	render := func(workers int) []byte {
		sw, err := RunSweepParallel(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteBenchJSON(&buf, BuildArtifact("all", sw)); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateBenchJSON(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d artifact failed validation: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); !bytes.Equal(serial, got) {
			t.Fatalf("JSON artifact at %d workers differs from serial (%d vs %d bytes)",
				workers, len(serial), len(got))
		}
	}
	// The rendered figures derive from the same samples, so they must
	// agree too.
	sw1, _ := RunSweepParallel(p, 1)
	sw8, _ := RunSweepParallel(p, 8)
	if sw1.Render() != sw8.Render() {
		t.Fatal("rendered figure text differs between serial and parallel sweeps")
	}
}

// TestPollSweepParallelArtifactBytesIdentical extends the byte-identity
// contract to the poll-mode datapath: a poll sweep — including the
// tail-attribution replay, which must re-open its capture sessions in
// poll mode — serializes identically at any worker count.
func TestPollSweepParallelArtifactBytesIdentical(t *testing.T) {
	p := Params{Seed: 42, Packets: 40, Payloads: []int{64, 256}, PollMode: true}
	render := func(workers int) []byte {
		sw, err := RunSweepParallel(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := AttributeTails(sw); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := telemetry.WriteBenchJSON(&buf, BuildArtifact("all", sw)); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateBenchJSON(buf.Bytes()); err != nil {
			t.Fatalf("workers=%d poll artifact failed validation: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	if !bytes.Contains(serial, []byte(`"datapath": "poll"`)) {
		t.Fatal("poll sweep artifact is missing datapath tags")
	}
	for _, workers := range []int{2, 8} {
		if got := render(workers); !bytes.Equal(serial, got) {
			t.Fatalf("poll JSON artifact at %d workers differs from serial (%d vs %d bytes)",
				workers, len(serial), len(got))
		}
	}
}

func TestParallelSweepWorkerCountEdgeCases(t *testing.T) {
	p := Params{Seed: 7, Packets: 10, Payloads: []int{64}}
	// More workers than cells, and zero/negative counts, must not
	// deadlock or drop cells.
	for _, workers := range []int{-1, 0, 1, 2, 64} {
		sw, err := RunSweepParallel(p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(sw.VirtIO) != 1 || len(sw.XDMA) != 1 || sw.VirtIO[0] == nil || sw.XDMA[0] == nil {
			t.Fatalf("workers=%d: incomplete sweep", workers)
		}
		if sw.VirtIO[0].Total.Count() != p.Packets {
			t.Fatalf("workers=%d: %d samples, want %d", workers, sw.VirtIO[0].Total.Count(), p.Packets)
		}
	}
}
