// Package deadcode reports module functions that no program can reach.
// It walks the whole-module call graph from a fixed set of roots and
// flags every function under internal/ that no root reaches. Roots:
//
//   - every main and init function, which covers cmd/, examples/ and
//     perfbench/;
//   - the exported functions, and the exported methods of exported
//     types, of every non-main package outside internal/ (the module's
//     public API);
//   - every function or method taken as a value rather than called,
//     and every function a package-level declaration names;
//   - every method of a type converted to an interface that declares
//     the method, and every method whose name the standard library
//     probes for by reflection or type assertion (String, Error,
//     MarshalJSON, ...);
//   - every function whose name another package's _test.go files use
//     as a selector. The loader type-checks no test files, so this
//     match is by name: it can only keep code, never flag it. A
//     package's own tests are not roots: code only they reach belongs
//     in a _test.go file, or nowhere;
//   - every function carrying `//fvlint:ignore deadcode <reason>`, so a
//     kept test oracle keeps its helpers with one directive.
//
// Interface method calls inside the module already fan out, in the
// call graph, to every implementation whose type some conversion turns
// into an interface.
package deadcode

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"

	"fpgavirtio/internal/analysis"
)

// Analyzer is the deadcode rule.
var Analyzer = &analysis.Analyzer{
	Name: "deadcode",
	Doc: "every internal/ function must be reachable from a main or init, the public " +
		"API, a function value, an interface conversion or another package's tests",
	Packages:  []string{"fpgavirtio/internal"},
	RunModule: runModule,
}

// probedMethods are method names the standard library calls through
// reflection or type assertions on values it is handed (fmt, errors,
// encoding/json, encoding), so no call site in the module shows them.
var probedMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

func runModule(mp *analysis.ModulePass) {
	g := mp.Graph
	kept := make(map[*types.Func]bool)
	suppressed := make(map[token.Position]bool) // file and line of each deadcode directive
	for _, pkg := range g.Pkgs {
		for _, f := range pkg.Files {
			scanFile(pkg.Info, f, kept)
		}
		for _, d := range analysis.ListDirectives(pkg.Fset, pkg.Files) {
			if d.Rule == "deadcode" && d.Reason != "" {
				suppressed[token.Position{Filename: d.File, Line: d.Line}] = true
			}
		}
	}
	testUsers := testSelectors(g.Pkgs)

	var roots []*analysis.FuncNode
	for _, n := range g.Functions() {
		pos := mp.Fset.Position(n.Decl.Pos())
		line := token.Position{Filename: pos.Filename, Line: pos.Line}
		above := token.Position{Filename: pos.Filename, Line: pos.Line - 1}
		if kept[n.Obj] || isEntry(n) || isPublicAPI(n) || probedMethods[n.Obj.Name()] && isMethod(n.Obj) ||
			suppressed[line] || suppressed[above] || calledFromOtherTests(testUsers[n.Obj.Name()], n.Pkg.Dir) {
			roots = append(roots, n)
		}
	}
	reached := g.Reachable(roots)
	for _, n := range g.Functions() {
		if _, ok := reached[n]; !ok {
			mp.Reportf(n.Decl.Pos(), "%s is unreachable: no main, init, public API, function value, interface conversion or other package's test reaches it", n.Key)
		}
	}
}

// calledFromOtherTests reports whether the tests of some directory
// other than own use the name.
func calledFromOtherTests(dirs map[string]bool, own string) bool {
	return len(dirs) > 1 || len(dirs) == 1 && !dirs[own]
}

func isMethod(fn *types.Func) bool { return fn.Type().(*types.Signature).Recv() != nil }

// isEntry reports a package-level main or init function.
func isEntry(n *analysis.FuncNode) bool {
	name := n.Obj.Name()
	return !isMethod(n.Obj) && (name == "main" || name == "init")
}

// isPublicAPI reports an exported function, or an exported method of
// an exported type, in an importable package outside internal/.
func isPublicAPI(n *analysis.FuncNode) bool {
	if n.Pkg.Types.Name() == "main" || slices.Contains(strings.Split(n.Pkg.Path, "/"), "internal") || !n.Obj.Exported() {
		return false
	}
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// scanFile adds to kept every function the file takes as a value or
// names in a package-level declaration, and every method a conversion
// to an interface type exposes to callers the call graph cannot see.
func scanFile(info *types.Info, f *ast.File, kept map[*types.Func]bool) {
	called := make(map[*ast.Ident]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id := calleeIdent(call.Fun); id != nil {
				called[id] = true
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		_, isFunc := decl.(*ast.FuncDecl)
		ast.Inspect(decl, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				// Calls inside a package-level declaration run at
				// init time, outside any function the graph walks.
				if fn, ok := info.Uses[id].(*types.Func); ok && (!isFunc || !called[id]) {
					kept[fn.Origin()] = true
				}
			}
			return true
		})
	}
	analysis.Conversions(info, f, func(src, dst types.Type) { keepConverted(src, dst, kept) })
}

// calleeIdent returns the identifier naming a call's callee: f, pkg.f,
// x.m, and their explicitly instantiated forms.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch e := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return calleeIdent(e.X)
	case *ast.IndexListExpr:
		return calleeIdent(e.X)
	}
	return nil
}

// keepConverted marks the methods through which a value of type src,
// stored in the interface type dst, can be called from outside the
// module's call graph.
func keepConverted(src, dst types.Type, kept map[*types.Func]bool) {
	iface := dst.Underlying().(*types.Interface)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(src, true, m.Pkg(), m.Name()); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				kept[fn.Origin()] = true
			}
		}
	}
}

// testSelectors parses the _test.go files in every loaded package's
// directory and maps each selector name they use to the directories
// whose tests use it.
func testSelectors(pkgs []*analysis.Package) map[string]map[string]bool {
	users := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		names, _ := filepath.Glob(filepath.Join(pkg.Dir, "*_test.go"))
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if users[sel.Sel.Name] == nil {
						users[sel.Sel.Name] = make(map[string]bool)
					}
					users[sel.Sel.Name][pkg.Dir] = true
				}
				return true
			})
		}
	}
	return users
}
