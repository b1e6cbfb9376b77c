package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if m.better != higher && m.better != lower {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
	}
	setup := -1.0
	for _, m := range endToEnd {
		if !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			setup = m.bound
		}
	}
	for _, m := range endToEnd {
		if m.bound > setup {
			t.Errorf("%s: bound %v exceeds setup_s's %v, which must be the largest", m.name, m.bound, setup)
		}
	}
	for _, m := range perLayer {
		if m.layer != "trace" && !slices.Contains(layers, m.layer) {
			t.Errorf("%s: unknown layer %q", m.name, m.layer)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json, this
// package's catalog and the README's metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range spec.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs from the code's", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", names, want)
	}
	check := func(kind string, got []jm, cat []metric) {
		if len(got) != len(cat) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(cat))
			return
		}
		for i, m := range cat {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if (g.Bound != nil) != (m.bound != 0) || g.Bound != nil && *g.Bound != m.bound {
				t.Errorf("%s: bound differs from the catalog's %v", m.name, m.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+m.name+"`")) && !strings.HasSuffix(m.name, ".host_ns_per_pkt") {
			t.Errorf("README.md does not describe %s", m.name)
		}
	}
}

func TestGenPlanDeterministic(t *testing.T) {
	a, b := genPlan(7, 20, 3, 0), genPlan(7, 20, 3, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	if c := genPlan(8, 20, 3, 0); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same plan")
	}
	// Each cycle of len(sizeCycle) batches covers every size once.
	for start := 0; start+len(sizeCycle) <= len(a.payloads); start += len(sizeCycle) {
		var sizes []int
		for _, p := range a.payloads[start : start+len(sizeCycle)] {
			sizes = append(sizes, len(p))
		}
		slices.Sort(sizes)
		if !reflect.DeepEqual(sizes, sizeCycle) {
			t.Errorf("cycle at %d has sizes %v, want a permutation of %v", start, sizes, sizeCycle)
		}
	}
	for _, p := range genPlan(7, 4, 2, 1024).payloads {
		if len(p) != 1024 {
			t.Errorf("fixed-size plan has a %d-byte payload", len(p))
		}
	}
}

// TestWorkloadGroups checks that rounds hold whole groups and that a
// group carries each (stack, payload size) pair once.
func TestWorkloadGroups(t *testing.T) {
	for _, w := range workloads {
		if w.group < 1 || w.batches%w.group != 0 {
			t.Errorf("%s: %d batches per round do not split into groups of %d", w.name, w.batches, w.group)
			continue
		}
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
		p := genPlan(1, w.batches, w.checks, w.fixedSize)
		for start := 0; start < w.batches; start += w.group {
			seen := map[[2]int]bool{}
			for i := start; i < start+w.group; i++ {
				key := [2]int{int(w.kind(i)), len(p.payloads[i])}
				if seen[key] {
					t.Errorf("%s: group at batch %d repeats stack/size %v", w.name, start, key)
				}
				seen[key] = true
			}
		}
	}
}

// TestLayerTableCoversPackages walks the module under test and fails
// when a package has no layer, or the table names a package that no
// longer exists.
func TestLayerTableCoversPackages(t *testing.T) {
	root := ".."
	found := map[string]bool{}
	if hasGoSource(t, root) {
		found["fpgavirtio"] = true
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			return filepath.SkipDir
		}
		if hasGoSource(t, path) {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			found["fpgavirtio/"+filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range found {
		l, ok := layerOf[pkg]
		if !ok {
			t.Errorf("package %s has no layer in layerOf", pkg)
		} else if !slices.Contains(layers, l) {
			t.Errorf("package %s maps to unknown layer %q", pkg, l)
		}
	}
	for pkg := range layerOf {
		if !found[pkg] {
			t.Errorf("layerOf names %s, which is not a package of the module", pkg)
		}
	}
}

func hasGoSource(t *testing.T, dir string) bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

func TestFoldStack(t *testing.T) {
	for fn, want := range map[string]string{
		"fpgavirtio/internal/sim.(*Sim).Run":                     "fpgavirtio/internal/sim",
		"fpgavirtio.(*NetSession).PingSeries.func1":              "fpgavirtio",
		"fpgavirtio/internal/drivers/virtionet.(*Device).Xmit":   "fpgavirtio/internal/drivers/virtionet",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "internal/runtime/maps",
		"fpgavirtio/internal/sim.push[go.shape.*fpgavirtio/x.T]": "fpgavirtio/internal/sim",
		"main.runBoot":       "main",
		"sync.(*Mutex).Lock": "sync",
		"fpgavirtio/internal/telemetry.(*HDRHistogram).Observe":          "fpgavirtio/internal/telemetry",
		"fpgavirtio/internal/sim.(*queue).pop":                           "fpgavirtio/internal/sim",
		"fpgavirtio/internal/pcie.(*RootComplex).MMIORead.func1.gowrap1": "fpgavirtio/internal/pcie",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"fpgavirtio/internal/sim.(*Sim).Run", "runtime.goexit"}, "sim"},
		{[]string{"runtime.chansend", "fpgavirtio/internal/sim.(*Proc).park"}, "runtime"},
		// Memory copies and standard-library helpers do their caller's work.
		{[]string{"runtime.memmove", "bytes.Equal", "fpgavirtio.(*XDMASession).roundTripAttempt"}, "session"},
		{[]string{"sync.(*Mutex).Lock", "fpgavirtio/internal/telemetry.(*Registry).Counter"}, "telemetry"},
		{[]string{"time.Now", "main.runBoot", "runtime.main"}, "other"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime.goexit"}, "runtime"},
		{nil, "other"},
	} {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("foldStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, args ...string) (map[string]any, map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("output has %d lines", len(lines))
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys = %v, want %v", keys, want)
	}
	var res struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var ctx struct{ Context map[string]any }
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &ctx); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, errors %v", res.Correct, res.Attempted, res.Failed, ctx.Context["errors"])
	}
	return ctx.Context, res.Metrics
}

func TestUntracedRunReportsEndToEnd(t *testing.T) {
	ctx, metrics := runBench(t, "--workload", "net-stream", "--seed", "3", "--seconds", "1", "--trace", "0")
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		got, ok := metrics[m.name]
		if !ok || got.Unit != m.unit || !(got.Value > 0) {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go", "seed", "batch_pkts", "samples", "digest"} {
		if _, ok := ctx[k]; !ok {
			t.Errorf("context lacks %q", k)
		}
	}
}

// TestTracedRunFoldsEveryLayer checks the traced run: every per-layer
// metric is reported, the fold's layers add up to the process CPU
// time within the profile's sampling error, and the traced boots
// reproduced the untraced boots' simulated record.
func TestTracedRunFoldsEveryLayer(t *testing.T) {
	out := t.TempDir()
	_, metrics := runBench(t, "--workload", "xdma-rtt", "--seed", "2", "--seconds", "3", "--trace", "1", "--out", out)
	if len(metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	samples := metrics["trace.profile_samples"].Value
	if samples < 100 {
		t.Fatalf("only %v profile samples", samples)
	}
	// Poisson counting error of the samples, plus slack for the CPU the
	// profiler's own signal handling spends outside any sample.
	tol := 4/math.Sqrt(samples) + 0.05
	if r := metrics["trace.layer_sum_ratio"].Value; math.Abs(r-1) > tol {
		t.Errorf("layer sum / process CPU = %v, want 1 ± %.3f", r, tol)
	}
	if v := metrics["xdmaip.dma_reads_per_pkt"].Value; v <= 0 {
		t.Errorf("xdmaip.dma_reads_per_pkt = %v on xdma-rtt", v)
	}
	if v := metrics["vdev.notifies_per_pkt"].Value; v != 0 {
		t.Errorf("vdev.notifies_per_pkt = %v on xdma-rtt, want 0", v)
	}
	for _, ext := range []string{".cpu.pprof", ".spans.jsonl"} {
		if _, err := os.Stat(filepath.Join(out, "xdma-rtt-seed2"+ext)); err != nil {
			t.Error(err)
		}
	}
}

func TestRefusesOversubscribedGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "net-rtt", "--seconds", "1"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d with output %q, want a refusal", code, stdout.String())
	}
}
