// Command fvlint runs the project's static-analysis suite — ringorder,
// kickflush, metricname, lockorder, hotalloc, detsafe, deadcode — over
// every package of the module. The per-package analyzers check each
// package in isolation; the interprocedural ones (kickflush, lockorder,
// detsafe, deadcode) run once over the whole-module call graph, so a
// blocking helper, an out-of-order lock, a wall-clock read hidden
// several calls deep, or an internal/ function no program reaches is
// still found.
//
// Usage:
//
//	fvlint [-suppressed] [-why] [-graph] [-suppressions] [-root dir]
//
// Diagnostics print as file:line:col: [analyzer] message. The exit
// status is 1 when any unsuppressed diagnostic remains, so `make lint`
// fails until the finding is fixed or carries an auditable
// `//fvlint:ignore <analyzer> <reason>` directive.
//
//	-suppressed    also print suppressed findings with their reasons
//	-why           print the root→site call path witnessing each
//	               cross-function diagnostic under the finding
//	-graph         print the deterministic module call graph and exit
//	-suppressions  audit every //fvlint:ignore directive in the tree:
//	               list file:line, rule and reason; exit 1 if any
//	               directive lacks a reason
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fpgavirtio/internal/analysis"
	"fpgavirtio/internal/analysis/deadcode"
	"fpgavirtio/internal/analysis/detsafe"
	"fpgavirtio/internal/analysis/hotalloc"
	"fpgavirtio/internal/analysis/kickflush"
	"fpgavirtio/internal/analysis/lockorder"
	"fpgavirtio/internal/analysis/metricname"
	"fpgavirtio/internal/analysis/ringorder"
)

var analyzers = []*analysis.Analyzer{
	ringorder.Analyzer,
	kickflush.Analyzer,
	metricname.Analyzer,
	lockorder.Analyzer,
	hotalloc.Analyzer,
	detsafe.Analyzer,
	deadcode.Analyzer,
}

// options selects the fvlint mode and output shape.
type options struct {
	suppressed bool // print suppressed findings with reasons
	why        bool // print call-path witnesses under findings
	graph      bool // dump the module call graph instead of linting
	audit      bool // audit //fvlint:ignore directives instead of linting
}

func main() {
	var opts options
	flag.BoolVar(&opts.suppressed, "suppressed", false, "also print suppressed diagnostics with their reasons")
	flag.BoolVar(&opts.why, "why", false, "print the call path witnessing each cross-function diagnostic")
	flag.BoolVar(&opts.graph, "graph", false, "print the module call graph and exit")
	flag.BoolVar(&opts.audit, "suppressions", false, "audit every //fvlint:ignore directive and exit")
	rootFlag := flag.String("root", ".", "directory inside the module to lint")
	flag.Parse()
	os.Exit(run(*rootFlag, opts, os.Stdout, os.Stderr))
}

func run(rootDir string, opts options, out, errw io.Writer) int {
	if opts.audit {
		return runSuppressionsAudit(rootDir, out, errw)
	}
	return runLint(rootDir, opts, out, errw)
}

// runLint lints the module containing rootDir and returns the process
// exit status: 0 clean, 1 with unsuppressed findings, 2 on load errors.
func runLint(rootDir string, opts options, out, errw io.Writer) int {
	root, modPath, err := analysis.FindModule(rootDir)
	if err != nil {
		fmt.Fprintln(errw, "fvlint:", err)
		return 2
	}
	pkgs, failed, err := loadModule(analysis.NewLoader(modPath, root), errw)
	if err != nil {
		fmt.Fprintln(errw, "fvlint:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.RunAnalyzers(pkg, analyzers)...)
	}

	// The interprocedural analyzers run once, over the call graph of
	// everything that loaded.
	graph := analysis.BuildCallGraph(pkgs)
	if opts.graph {
		io.WriteString(out, graph.Dump())
		if failed {
			return 2
		}
		return 0
	}
	diags = append(diags, analysis.RunModuleAnalyzers(graph, analyzers)...)
	analysis.SortDiagnostics(diags)

	bad := 0
	for _, d := range diags {
		if d.Suppressed {
			if opts.suppressed {
				fmt.Fprintf(out, "%s [suppressed: %s]\n", d, d.Reason)
			}
			continue
		}
		bad++
		fmt.Fprintln(out, d)
		if opts.why && len(d.Witness) > 0 {
			for _, w := range d.Witness {
				fmt.Fprintf(out, "    %s\n", w)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(errw, "fvlint: %d finding(s)\n", bad)
		return 1
	}
	if failed {
		return 2
	}
	return 0
}

// loadModule loads every package of the loader's module, printing each
// package that fails to load to errw and reporting whether any did.
func loadModule(loader *analysis.Loader, errw io.Writer) (pkgs []*analysis.Package, failed bool, err error) {
	dirs, err := packageDirs(loader.ModuleRoot)
	if err != nil {
		return nil, false, err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(loader.ModuleRoot, dir)
		importPath := loader.ModulePath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(dir, importPath)
		if err != nil {
			fmt.Fprintf(errw, "fvlint: %v\n", err)
			failed = true
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, failed, nil
}

// runSuppressionsAudit parses every non-testdata Go file under the
// module (test files included) and lists each //fvlint:ignore
// directive with its rule and reason, using the same parser the
// suppression matcher itself uses — prose or string literals that
// merely mention the marker do not count. A directive without a reason
// fails the audit: the framework already refuses to suppress on it, so
// it is dead weight that looks like an exemption — it must either gain
// a justification or go.
func runSuppressionsAudit(rootDir string, out, errw io.Writer) int {
	root, _, err := analysis.FindModule(rootDir)
	if err != nil {
		// No module marker: audit the tree as given (keeps the audit
		// usable on bare directories and in tests).
		root = rootDir
	}
	fset := token.NewFileSet()
	var entries []analysis.DirectiveInfo
	walkErr := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, di := range analysis.ListDirectives(fset, []*ast.File{f}) {
			rel, _ := filepath.Rel(root, di.File)
			di.File = filepath.ToSlash(rel)
			entries = append(entries, di)
		}
		return nil
	})
	if walkErr != nil {
		fmt.Fprintln(errw, "fvlint:", walkErr)
		return 2
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].File != entries[j].File {
			return entries[i].File < entries[j].File
		}
		return entries[i].Line < entries[j].Line
	})
	missing := 0
	for _, e := range entries {
		if e.Reason == "" {
			missing++
			fmt.Fprintf(out, "%s:%d: [%s] MISSING REASON\n", e.File, e.Line, e.Rule)
			continue
		}
		fmt.Fprintf(out, "%s:%d: [%s] %s\n", e.File, e.Line, e.Rule, e.Reason)
	}
	fmt.Fprintf(out, "%d suppression(s), %d without reason\n", len(entries), missing)
	if missing > 0 {
		fmt.Fprintf(errw, "fvlint: %d suppression(s) lack a reason; a reason-less //fvlint:ignore suppresses nothing and must be justified or removed\n", missing)
		return 1
	}
	return 0
}

// packageDirs lists every directory under root holding non-test Go
// files, skipping testdata, hidden and underscore-prefixed trees.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
				out = append(out, path)
				break
			}
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}
