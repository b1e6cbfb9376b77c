package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module call graph the interprocedural
// analyzers (detsafe, and the cross-function modes of kickflush and
// lockorder) run on. Nodes are functions; edges are call sites. Static
// calls resolve directly through the type checker; interface method
// calls fan out to every module method whose receiver type
// implements the interface and is boxed: turned into an interface by
// some conversion, assignment, composite literal or other implicit
// conversion (Conversions), or used as a type argument. A value boxed
// in one interface can be asserted to another, so a conversion to any
// interface counts; calls the resolver cannot see through
// (func values, method values, reflection) land on a single shared
// "unknown callee" node so the analyses stay sound about what they do
// not know.
//
// All construction and traversal orders are deterministic: nodes sort
// by key, call sites keep source order, and breadth-first reachability
// processes roots and edges in those orders. Diagnostics derived from
// the graph therefore print identically run to run — itself a checked
// property (TestCallGraphDeterministic).

// FuncNode is one function in the module call graph. External
// (non-module) callees get a node with a nil Decl so denylist checks
// can match them by Key; the shared unknown node has a nil Obj too.
type FuncNode struct {
	// Key is the stable human-readable identity used for sorting,
	// printing and witness paths: "pkg/path.Func" for package-level
	// functions, "(pkg/path.Recv).Method" for methods, "time.Now" for
	// stdlib callees, "<unknown>" for the unresolved-callee node.
	Key string
	// Obj is the type-checker object; nil only for the unknown node.
	Obj *types.Func
	// Pkg is the defining module package; nil for external callees.
	Pkg *Package
	// Decl is the function's syntax; nil for external and unknown.
	Decl *ast.FuncDecl
	// Calls lists outgoing call sites in source order. Interface
	// dispatch contributes one site per candidate implementation.
	Calls []*CallSite
	// Callers lists incoming sites; order follows graph construction
	// (caller key, then source order) and is deterministic.
	Callers []*CallSite
	// Root marks detsafe roots; set by the analyzer, not the builder.
	Root bool
}

// External reports whether the node is a callee outside the module
// (standard library) rather than a module function or the unknown node.
func (n *FuncNode) External() bool { return n.Decl == nil && n.Obj != nil }

// CallSite is one resolved edge: caller reaches callee at Pos.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	// Pos is the position of the call expression (CallExpr.Pos), the
	// same position Linearize attaches to call ops, so flow walks can
	// join graph edges by position.
	Pos token.Pos
	// Iface is non-nil when the edge models interface dispatch; it
	// names the interface method the call was written against.
	Iface *types.Func
}

// CallGraph is the module-wide function graph.
type CallGraph struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Unknown is the shared conservative node for unresolvable callees.
	Unknown *FuncNode

	nodes map[*types.Func]*FuncNode
	// sites indexes call sites by call-expression position. Interface
	// dispatch and pathological nestings can put several sites at one
	// position, hence the slice.
	sites map[token.Pos][]*CallSite
	// fileToPkg maps source filenames to their module package path, for
	// scope-filtering module diagnostics.
	fileToPkg map[string]string

	sorted []*FuncNode // module function nodes, sorted by Key

	// boxed holds the module's named types that some conversion turns
	// into an interface, by value or by pointer, or that instantiate a
	// generic; linkInterface links only their methods.
	boxed map[*types.Named]bool
}

// funcKey renders the stable identity of a function object.
func funcKey(obj *types.Func) string {
	sig, _ := obj.Type().(*types.Signature)
	pkgPath := ""
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		name := types.TypeString(recv, func(p *types.Package) string { return "" })
		return fmt.Sprintf("(%s.%s).%s", pkgPath, name, obj.Name())
	}
	if pkgPath == "" {
		return obj.Name()
	}
	return pkgPath + "." + obj.Name()
}

// BuildCallGraph constructs the call graph over the given type-checked
// packages. All packages must share one token.FileSet (one Loader).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Pkgs:      pkgs,
		nodes:     make(map[*types.Func]*FuncNode),
		sites:     make(map[token.Pos][]*CallSite),
		fileToPkg: make(map[string]string),
		boxed:     make(map[*types.Named]bool),
	}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	g.Unknown = &FuncNode{Key: "<unknown>"}

	// Pass 1: a node per declared function, plus the file→package map.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.fileToPkg[pkg.Fset.Position(f.Pos()).Filename] = pkg.Path
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				g.nodes[obj] = &FuncNode{Key: funcKey(obj), Obj: obj, Pkg: pkg, Decl: fd}
			}
		}
	}

	// The types interface calls can reach.
	box := func(t types.Type) {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			g.boxed[n.Origin()] = true
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			Conversions(pkg.Info, f, func(src, _ types.Type) { box(src) })
		}
		for _, inst := range pkg.Info.Instances {
			for i := 0; i < inst.TypeArgs.Len(); i++ {
				box(inst.TypeArgs.At(i))
			}
		}
	}

	// Pass 2: resolve every call expression in every declared body.
	for _, n := range g.moduleNodesUnsorted() {
		if n.Decl.Body == nil {
			continue
		}
		caller := n
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			g.addEdges(caller, call)
			return true
		})
	}

	// Callers fill in deterministically: iterate module nodes sorted by
	// key, sites in source order.
	for _, n := range g.Functions() {
		for _, cs := range n.Calls {
			cs.Callee.Callers = append(cs.Callee.Callers, cs)
		}
	}
	return g
}

func (g *CallGraph) moduleNodesUnsorted() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.Decl != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Functions returns every module function node, sorted by Key.
func (g *CallGraph) Functions() []*FuncNode {
	if g.sorted == nil {
		g.sorted = g.moduleNodesUnsorted()
	}
	return g.sorted
}

// SitesAt returns the call sites whose call expression starts at pos.
func (g *CallGraph) SitesAt(pos token.Pos) []*CallSite { return g.sites[pos] }

// PkgPathOf maps a diagnostic position to its module package path
// (empty for files outside the loaded set, e.g. fixtures).
func (g *CallGraph) PkgPathOf(pos token.Position) string { return g.fileToPkg[pos.Filename] }

// addEdges resolves one call expression into zero or more edges.
func (g *CallGraph) addEdges(caller *FuncNode, call *ast.CallExpr) {
	info := caller.Pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			g.link(caller, obj, call, nil)
			return
		case *types.TypeName, *types.Builtin, nil:
			return // conversion or builtin: no call edge
		default:
			// Func value in a variable: splice only through the unknown
			// node. Local closures are handled by Linearize in the flow
			// analyses; for reachability they are part of this body.
			g.linkUnknown(caller, call)
			return
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			callee, _ := sel.Obj().(*types.Func)
			if callee == nil {
				g.linkUnknown(caller, call) // func-typed field
				return
			}
			if isInterfaceMethod(callee) {
				g.linkInterface(caller, callee, call)
				return
			}
			g.link(caller, callee, call, nil)
			return
		}
		// Qualified identifier: pkg.Fn, or a conversion like sim.Duration(x).
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			g.link(caller, obj, call, nil)
		case *types.TypeName, *types.Builtin, nil:
		default:
			g.linkUnknown(caller, call)
		}
		return
	case *ast.FuncLit:
		return // immediately-invoked literal: body is part of this decl
	default:
		// Conversions to named function types arrive as *ast.ArrayType
		// etc.; anything callable and opaque is unknown.
		if _, ok := info.Types[call.Fun]; ok && info.Types[call.Fun].IsType() {
			return
		}
		g.linkUnknown(caller, call)
	}
}

func isInterfaceMethod(obj *types.Func) bool {
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// link adds one edge from caller to the node of obj, creating an
// external node when obj is declared outside the module.
func (g *CallGraph) link(caller *FuncNode, obj *types.Func, call *ast.CallExpr, iface *types.Func) {
	callee, ok := g.nodes[obj]
	if !ok {
		callee = &FuncNode{Key: funcKey(obj), Obj: obj}
		g.nodes[obj] = callee
	}
	cs := &CallSite{Caller: caller, Callee: callee, Pos: call.Pos(), Iface: iface}
	caller.Calls = append(caller.Calls, cs)
	g.sites[call.Pos()] = append(g.sites[call.Pos()], cs)
}

func (g *CallGraph) linkUnknown(caller *FuncNode, call *ast.CallExpr) {
	cs := &CallSite{Caller: caller, Callee: g.Unknown, Pos: call.Pos()}
	caller.Calls = append(caller.Calls, cs)
	g.sites[call.Pos()] = append(g.sites[call.Pos()], cs)
}

// linkInterface fans an interface method call out to every module
// method that could satisfy the dispatch: same name, receiver type
// (value or pointer) boxed and implementing the interface. The interface method
// itself is linked too, so denylists can match calls written against
// stdlib interfaces, and so an implementation-free interface still
// records that something opaque was called.
func (g *CallGraph) linkInterface(caller *FuncNode, ifaceMethod *types.Func, call *ast.CallExpr) {
	sig := ifaceMethod.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	g.link(caller, ifaceMethod, call, nil)
	if iface == nil {
		return
	}
	var impls []*types.Func
	for _, pkg := range g.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || !g.boxed[named] {
				continue
			}
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			m, _, _ := types.LookupFieldOrMethod(recv, true, ifaceMethod.Pkg(), ifaceMethod.Name())
			if fn, ok := m.(*types.Func); ok {
				if _, declared := g.nodes[fn]; declared {
					impls = append(impls, fn)
				}
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return funcKey(impls[i]) < funcKey(impls[j]) })
	for _, fn := range impls {
		g.link(caller, fn, call, ifaceMethod)
	}
}

// Reachable computes the functions reachable from roots by following
// call edges breadth-first. The returned map gives, for every reached
// node, the call site it was first reached through (nil for roots
// themselves) — enough to reconstruct a shortest witness path.
func (g *CallGraph) Reachable(roots []*FuncNode) map[*FuncNode]*CallSite {
	sortedRoots := append([]*FuncNode(nil), roots...)
	sort.Slice(sortedRoots, func(i, j int) bool { return sortedRoots[i].Key < sortedRoots[j].Key })
	reached := make(map[*FuncNode]*CallSite)
	var queue []*FuncNode
	for _, r := range sortedRoots {
		if _, ok := reached[r]; !ok {
			reached[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, cs := range n.Calls {
			if _, ok := reached[cs.Callee]; ok {
				continue
			}
			reached[cs.Callee] = cs
			if cs.Callee.Decl != nil {
				queue = append(queue, cs.Callee)
			}
		}
	}
	return reached
}

// WitnessPath reconstructs the root→target call chain recorded by
// Reachable as printable lines ("Key (file:line)" per hop).
func (g *CallGraph) WitnessPath(reached map[*FuncNode]*CallSite, target *FuncNode) []string {
	var hops []*FuncNode
	var sites []*CallSite
	for n := target; ; {
		hops = append(hops, n)
		cs, ok := reached[n]
		if !ok || cs == nil {
			break
		}
		sites = append(sites, cs)
		n = cs.Caller
		if len(hops) > 64 { // cycle guard; cannot happen with BFS parents
			break
		}
	}
	out := make([]string, 0, len(hops))
	for i := len(hops) - 1; i >= 0; i-- {
		n := hops[i]
		if i == len(hops)-1 {
			out = append(out, n.Key)
			continue
		}
		cs := sites[i]
		pos := g.Fset.Position(cs.Pos)
		out = append(out, fmt.Sprintf("→ %s (called at %s:%d)", n.Key, pos.Filename, pos.Line))
	}
	return out
}

// Dump renders the graph deterministically for -graph and the
// construction-determinism test: one line per module function, callee
// keys in source order, interface fan-out edges marked.
func (g *CallGraph) Dump() string {
	var b strings.Builder
	for _, n := range g.Functions() {
		fmt.Fprintf(&b, "%s\n", n.Key)
		for _, cs := range n.Calls {
			marker := ""
			if cs.Iface != nil {
				marker = fmt.Sprintf(" [via %s]", funcKey(cs.Iface))
			}
			pos := g.Fset.Position(cs.Pos)
			fmt.Fprintf(&b, "  → %s%s (%s:%d)\n", cs.Callee.Key, marker, pos.Filename, pos.Line)
		}
	}
	return b.String()
}
