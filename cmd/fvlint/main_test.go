package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fpgavirtio/internal/analysis"
	"fpgavirtio/internal/analysis/deadcode"
)

// repoRoot locates the module root from this test file's position, so
// the smoke test works regardless of the test working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))) // cmd/fvlint/main_test.go -> repo root
}

// TestLintRepoIsClean is the lint gate in test form: the repository
// itself must produce zero unsuppressed diagnostics — including from
// the interprocedural analyzers over the whole-module call graph.
func TestLintRepoIsClean(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runLint(repoRoot(t), options{}, &out, &errw); code != 0 {
		t.Fatalf("fvlint on the repo exited %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

// TestDeadcodeCleanUnderBuildTags runs deadcode over the module built
// with each of the repo's build tags: a function reached only from
// files one tag adds or drops must still be reached, or suppressed.
func TestDeadcodeCleanUnderBuildTags(t *testing.T) {
	root, modPath, err := analysis.FindModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"fvinvariants", "simrefqueue"} {
		loader := analysis.NewLoader(modPath, root)
		loader.BuildTags = []string{tag}
		var errw bytes.Buffer
		pkgs, failed, err := loadModule(loader, &errw)
		if err != nil || failed {
			t.Fatalf("-tags %s: loading the module: %v\n%s", tag, err, errw.String())
		}
		graph := analysis.BuildCallGraph(pkgs)
		for _, d := range analysis.RunModuleAnalyzers(graph, []*analysis.Analyzer{deadcode.Analyzer}) {
			if !d.Suppressed {
				t.Errorf("-tags %s: %s", tag, d)
			}
		}
	}
}

// TestLintFlagsKnownBadModule smoke-tests the whole pipeline — module
// discovery, source loading, analyzer run, diagnostic printing, exit
// status — against the known-bad fixture module under testdata.
func TestLintFlagsKnownBadModule(t *testing.T) {
	bad := filepath.Join(repoRoot(t), "cmd", "fvlint", "testdata", "lintbad")
	var out, errw bytes.Buffer
	if code := runLint(bad, options{}, &out, &errw); code != 1 {
		t.Fatalf("fvlint on lintbad exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "[kickflush]") {
		t.Errorf("diagnostics missing [kickflush] tag:\n%s", got)
	}
	if !strings.Contains(got, "RecvFrom") || !strings.Contains(got, "SendTo") {
		t.Errorf("diagnostic does not name the enqueue/block pair:\n%s", got)
	}
	if strings.Contains(got, "GoodPing") {
		t.Errorf("fixed shape GoodPing was flagged:\n%s", got)
	}
	if n := strings.Count(got, "/bad.go:"); n != 1 {
		t.Errorf("want exactly 1 finding in bad.go, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "[detsafe]") || !strings.Contains(got, "time.Now") {
		t.Errorf("diagnostics missing the seeded detsafe wall-clock finding:\n%s", got)
	}
}

// TestWhyPrintsWitness pins the -why acceptance shape: the seeded
// detsafe finding in lintbad carries the root→helper call path.
func TestWhyPrintsWitness(t *testing.T) {
	bad := filepath.Join(repoRoot(t), "cmd", "fvlint", "testdata", "lintbad")
	var out, errw bytes.Buffer
	if code := runLint(bad, options{why: true}, &out, &errw); code != 1 {
		t.Fatalf("fvlint -why on lintbad exited %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	got := out.String()
	for _, wantLine := range []string{
		"lintbad.RunStamp",
		"→ lintbad.stamp (called at",
		"→ calls time.Now",
	} {
		if !strings.Contains(got, wantLine) {
			t.Errorf("-why output missing witness line %q:\n%s", wantLine, got)
		}
	}
}

// TestGraphMode checks -graph prints the deterministic call-graph dump.
func TestGraphMode(t *testing.T) {
	bad := filepath.Join(repoRoot(t), "cmd", "fvlint", "testdata", "lintbad")
	var out, errw bytes.Buffer
	if code := runLint(bad, options{graph: true}, &out, &errw); code != 0 {
		t.Fatalf("fvlint -graph exited %d, want 0\nstderr:\n%s", code, errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "lintbad.RunStamp\n") {
		t.Errorf("-graph output missing node lintbad.RunStamp:\n%s", got)
	}
	if !strings.Contains(got, "→ lintbad.stamp") || !strings.Contains(got, "→ time.Now") {
		t.Errorf("-graph output missing edges of RunStamp/stamp:\n%s", got)
	}
	var again bytes.Buffer
	if code := runLint(bad, options{graph: true}, &again, &errw); code != 0 || again.String() != got {
		t.Errorf("-graph output not identical across runs")
	}
}

// TestSuppressionsAuditRepo: every suppression in the repo proper must
// carry a reason, so the audit gate exits 0.
func TestSuppressionsAuditRepo(t *testing.T) {
	var out, errw bytes.Buffer
	if code := runSuppressionsAudit(repoRoot(t), &out, &errw); code != 0 {
		t.Fatalf("suppressions audit on the repo exited %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "suppression(s), 0 without reason") {
		t.Errorf("audit summary line missing:\n%s", out.String())
	}
}

// TestSuppressionsAuditFlagsMissingReason: a reason-less directive
// fails the audit with exit 1 and is listed as MISSING REASON.
func TestSuppressionsAuditFlagsMissingReason(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\nfunc f() {\n\t//fvlint:ignore kickflush\n\t_ = 0\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := runSuppressionsAudit(dir, &out, &errw); code != 1 {
		t.Fatalf("audit exited %d, want 1\nstdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING REASON") {
		t.Errorf("audit did not flag the reason-less directive:\n%s", out.String())
	}
}
