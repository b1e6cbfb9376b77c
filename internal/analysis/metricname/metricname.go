// Package metricname keeps the telemetry namespace canonical: every
// Registry instrument (Counter / Gauge / Histogram / HDR) must be named
// by a constant from internal/telemetry/names.go or built by one of its
// Metric* helper functions — including the tail.* and recorder.*
// families the tail-attribution work added — every span kind must be
// registered (Sim.SpanKind) under one of the telemetry Layer*
// constants, and a span opened in a function must have its End
// reachable before every return (or be closed by a defer). Ad-hoc name literals drift from the replay baselines and
// dashboards; a leaked span corrupts per-layer latency attribution for
// the rest of the run.
package metricname

import (
	"go/ast"
	"go/types"
	"strings"

	"fpgavirtio/internal/analysis"
)

const telemetryPkg = "fpgavirtio/internal/telemetry"

// Analyzer is the metricname rule.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "registry instruments must be named via internal/telemetry constants " +
		"or Metric* helpers; span kinds must use telemetry Layer* constants and spans must reach End on all paths",
	Skip: []string{
		// telemetry owns the name table; its own tests exercise ad-hoc
		// names on purpose. sim defines the raw span plumbing.
		telemetryPkg,
		"fpgavirtio/internal/sim",
		// The analysis framework's own packages mention instrument
		// method names in classifier tables, not as real calls.
		"fpgavirtio/internal/analysis",
	},
	Run: run,
}

var instrumentMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "HDR": true}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkNames(pass, fd.Body)
			checkSpanEnds(pass, fd.Body)
		}
	}
}

// checkNames validates instrument-name and span-layer arguments. The
// layer is checked where a span kind is registered, the only place a
// span's layer string appears: BeginSpan carries just the kind id.
func checkNames(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case instrumentMethods[sel.Sel.Name] && len(call.Args) >= 1:
			arg := call.Args[0]
			if !isStringExpr(pass, arg) {
				return true // e.g. histogram rendering h.Histogram(bins, width)
			}
			if !isTelemetryConst(pass, arg) && !isMetricHelperCall(pass, arg) {
				pass.Reportf(arg.Pos(),
					"metric name must be a telemetry constant or Metric* helper from %s, not an ad-hoc expression", telemetryPkg)
			}
		case sel.Sel.Name == "SpanKind" && len(call.Args) >= 1 && !isConversion(pass, call):
			if !isLayerConst(pass, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"span layer must be one of the telemetry Layer* constants")
			}
		}
		return true
	})
}

// isConversion reports whether call converts to a type (sim.SpanKind(n))
// rather than calling a function.
func isConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	if pass.Info == nil {
		return false
	}
	tv, ok := pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func isStringExpr(pass *analysis.Pass, e ast.Expr) bool {
	if pass.Info == nil {
		return true
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return true
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// telemetryObj resolves e to the object it names, if that object is
// declared in the telemetry package.
func telemetryObj(pass *analysis.Pass, e ast.Expr) types.Object {
	if pass.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != telemetryPkg {
		return nil
	}
	return obj
}

func isTelemetryConst(pass *analysis.Pass, e ast.Expr) bool {
	obj := telemetryObj(pass, e)
	if obj == nil {
		return false
	}
	_, ok := obj.(*types.Const)
	return ok
}

func isLayerConst(pass *analysis.Pass, e ast.Expr) bool {
	obj := telemetryObj(pass, e)
	if obj == nil {
		return false
	}
	_, isConst := obj.(*types.Const)
	return isConst && strings.HasPrefix(obj.Name(), "Layer")
}

func isMetricHelperCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := telemetryObj(pass, call.Fun)
	if obj == nil {
		return false
	}
	_, isFunc := obj.(*types.Func)
	return isFunc && strings.HasPrefix(obj.Name(), "Metric")
}

// checkSpanEnds walks the body in source order tracking spans opened by
// `sp := x.BeginSpan(...)`. A span is closed by sp.End() or a defer
// that (transitively, for deferred closures) calls sp.End(). Any
// return reached while a span is open leaks it.
func checkSpanEnds(pass *analysis.Pass, body *ast.BlockStmt) {
	open := map[*ast.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure is its own frame: spans opened there must close
			// there. checkSpanEnds is called per FuncDecl only; closures
			// get a nested walk and are excluded from the outer one.
			checkSpanEnds(pass, n.Body)
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Obj == nil || i >= len(n.Rhs) {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "BeginSpan" {
						open[id.Obj] = true
					}
				}
			}
		case *ast.DeferStmt:
			closeEnds(open, n.Call)
			if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(fl.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						closeEnds(open, c)
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			closeEnds(open, n)
		case *ast.ReturnStmt:
			for obj := range open {
				if open[obj] {
					pass.Reportf(n.Pos(),
						"return may leak span %q: End() not called on this path (and no defer closes it)", obj.Name)
					open[obj] = false // one report per span per function
				}
			}
		}
		return true
	})
}

// closeEnds marks tracked spans closed when call is sp.End().
func closeEnds(open map[*ast.Object]bool, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Obj != nil {
		if _, tracked := open[id.Obj]; tracked {
			open[id.Obj] = false
		}
	}
}
