package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module from source.
// Imports inside the module resolve by mapping the import path onto the
// module root; everything else (the standard library) goes through the
// stdlib source importer, so loading works offline and without
// pre-compiled export data. Every loader shares one FileSet and one
// stdlib importer (see stdlib), so only the first load in a process
// type-checks the standard library.
type Loader struct {
	// ModulePath and ModuleRoot identify the module being linted.
	ModulePath string
	ModuleRoot string
	// BuildTags are additional build tags considered satisfied when
	// evaluating //go:build lines (see keepFile).
	BuildTags []string

	Fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*Package
	failed map[string]error
}

// stdlib is the standard library's source importer and the FileSet it
// and every loader record positions in. A loader's BuildTags never
// reach the standard library's import, so loaders that differ only in
// them, or in the module they load, can share the importer, and the
// library is type-checked from source once per process instead of once
// per load.
var stdlib struct {
	once sync.Once
	fset *token.FileSet
	imp  sharedImporter
}

// sharedImporter serializes the shared source importer, which is not
// safe for concurrent use.
type sharedImporter struct {
	mu  sync.Mutex
	imp types.ImporterFrom
}

func (s *sharedImporter) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *sharedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.imp.ImportFrom(path, dir, mode)
}

// NewLoader returns a loader rooted at the given module.
func NewLoader(modulePath, moduleRoot string) *Loader {
	stdlib.once.Do(func() {
		stdlib.fset = token.NewFileSet()
		stdlib.imp.imp = importer.ForCompiler(stdlib.fset, "source", nil).(types.ImporterFrom)
	})
	return &Loader{
		ModulePath: modulePath,
		ModuleRoot: moduleRoot,
		Fset:       stdlib.fset,
		std:        &stdlib.imp,
		pkgs:       make(map[string]*Package),
		failed:     make(map[string]error),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// LoadDir loads the package in dir under the given import path.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if err, ok := l.failed[importPath]; ok {
		return nil, err
	}
	p, err := l.load(dir, importPath)
	if err != nil {
		l.failed[importPath] = err
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// keepFile evaluates the file's //go:build line, if any: release tags
// (go1.N) hold up to the running Go version, the loader's BuildTags
// hold, and every other tag — GOOS, GOARCH, experiments, cgo — is
// false. A line that does not parse drops the file.
func (l *Loader) keepFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false
			}
			return expr.Eval(l.hasTag)
		}
	}
	return true
}

func (l *Loader) hasTag(tag string) bool {
	return slices.Contains(build.Default.ReleaseTags, tag) || slices.Contains(l.BuildTags, tag)
}

func (l *Loader) load(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !l.keepFile(f) {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l, fromDir: dir},
		Error:    func(error) {}, // collect all, fail on the first below
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// moduleImporter resolves module-internal imports through the loader
// and delegates the rest to the stdlib source importer.
type moduleImporter struct {
	l       *Loader
	fromDir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.fromDir, 0)
}

func (m *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := m.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
