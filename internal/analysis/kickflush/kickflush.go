// Package kickflush generalizes the PR 2 deferred-kick deadlock fix
// into a rule: after queueing transmit work (SendTo / Xmit / AddChain),
// a function must not reach a blocking operation — a wait-queue,
// trigger or condition Wait, a blocking receive, a channel operation,
// or a select without default — before a doorbell flush (FlushTx /
// Kick / KickIfNeeded). Under a batched-doorbell policy (TxKickBatch)
// the queued packet may still be invisible to the device, so blocking
// on its completion deadlocks the session.
//
// The check is interprocedural: every function gets a summary —
// may it block before flushing? does it flush? does it leave an
// enqueue pending at return? — propagated to a fixpoint over the
// module call graph, so a blocking helper hidden one or more calls
// deep is seen from the frame that still owes the doorbell. Within
// each body the check linearizes ops in source order, doubling loop
// bodies so an enqueue late in a loop is seen by a blocking call early
// in the next iteration. Local closures are spliced into their call
// sites; goroutine bodies are checked independently. Diagnostics on
// hidden blockers carry the call-path witness fvlint -why prints.
package kickflush

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"fpgavirtio/internal/analysis"
)

// Analyzer is the kickflush rule.
var Analyzer = &analysis.Analyzer{
	Name: "kickflush",
	Doc: "no blocking operation may be reachable after queueing transmit work " +
		"until a doorbell flush (FlushTx/Kick/KickIfNeeded) has run, " +
		"including blocks hidden inside callees",
	Skip: []string{
		// The simulator defines the blocking primitives themselves.
		"fpgavirtio/internal/sim",
	},
	RunModule: runModule,
}

// enqueueMethods queue transmit work that a batched doorbell may leave
// invisible to the device.
var enqueueMethods = map[string]bool{"SendTo": true, "Xmit": true, "AddChain": true}

// flushMethods guarantee any owed doorbell was delivered (or its
// elision re-decided against current device hints).
var flushMethods = map[string]bool{"FlushTx": true, "Kick": true, "KickIfNeeded": true}

// blockMethods block until another process makes progress.
var blockMethods = map[string]bool{"Wait": true, "RecvFrom": true}

func classify(call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		switch {
		case enqueueMethods[name]:
			return "enqueue:" + name, false
		case flushMethods[name]:
			return "flush:" + name, false
		case blockMethods[name]:
			return name, true
		}
	}
	// Everything else is a potential module call: the walk resolves it
	// against the call graph by position and joins callee summaries.
	return "call", false
}

// summary is the interprocedural fact set of one function.
type summary struct {
	// blocksBeforeFlush: on the linearized path, a blocking op is
	// reachable before any doorbell flush — so calling this function
	// with an unflushed enqueue pending can deadlock.
	blocksBeforeFlush bool
	blockDetail       string
	blockPos          token.Pos
	// blockSite is the call site hiding the block when it lives in a
	// callee; nil when this function blocks directly.
	blockSite *analysis.CallSite
	// flushes: the function delivers a doorbell flush on the linearized
	// path, clearing any pending enqueue of its caller.
	flushes bool
	// pending names the enqueue method the function leaves unflushed at
	// return ("" when none), so callers inherit the owed doorbell.
	pending     string
	pendingSite *analysis.CallSite
}

var flowCfg = analysis.FlowConfig{
	ClassifyCall: classify,
	DoubleLoops:  true,
	ChanOpsBlock: true,
}

func runModule(mp *analysis.ModulePass) {
	g := mp.Graph
	sums := make(map[*analysis.FuncNode]*summary)
	ops := make(map[*analysis.FuncNode][]analysis.Op)
	for _, n := range g.Functions() {
		sums[n] = &summary{}
		// Skip packages (the simulator kernel) contribute no summaries:
		// their control transfers are cooperative-scheduler handoffs
		// that always complete once the scheduler runs, not waits on
		// device progress. The genuinely blocking primitives they export
		// (Wait, RecvFrom) are matched by name at the call site instead.
		if n.Decl.Body != nil && mp.Analyzer.AppliesTo(n.Pkg.Path) {
			ops[n] = analysis.Linearize(n.Decl.Body, flowCfg)
		}
	}
	g.Fixpoint(func(n *analysis.FuncNode) bool {
		next := summarize(g, ops[n], sums)
		if *sums[n] != next {
			*sums[n] = next
			return true
		}
		return false
	})

	for _, n := range g.Functions() {
		if ops[n] == nil {
			continue
		}
		check(mp, g, sums, ops[n])
		// Goroutine bodies and callback literals run outside this frame;
		// check each one as its own sequence. Var-bound closures were
		// already spliced into their call sites.
		bound := varBoundFuncLits(n.Decl.Body)
		for _, fl := range analysis.FuncLits(n.Decl.Body) {
			if !bound[fl] {
				check(mp, g, sums, analysis.Linearize(fl.Body, flowCfg))
			}
		}
	}
}

// summarize recomputes one function's summary from its ops and the
// current summaries of its callees.
func summarize(g *analysis.CallGraph, ops []analysis.Op, sums map[*analysis.FuncNode]*summary) summary {
	var s summary
	flushed := false
	pending := ""
	var pendingSite *analysis.CallSite
	for _, op := range ops {
		if op.Deferred {
			continue
		}
		switch {
		case op.Kind == analysis.OpCall && strings.HasPrefix(op.Detail, "enqueue:"):
			pending = strings.TrimPrefix(op.Detail, "enqueue:")
			pendingSite = nil
		case op.Kind == analysis.OpCall && strings.HasPrefix(op.Detail, "flush:"):
			s.flushes = true
			flushed = true
			pending = ""
		case op.Kind == analysis.OpBlock:
			if !flushed && !s.blocksBeforeFlush {
				s.blocksBeforeFlush = true
				s.blockDetail = op.Detail
				s.blockPos = op.Pos
			}
		case op.Kind == analysis.OpCall && op.Detail == "call":
			for _, cs := range g.SitesAt(op.Pos) {
				cal := sums[cs.Callee]
				if cal == nil {
					continue // external or unknown callee: no facts
				}
				if cal.blocksBeforeFlush && !flushed && !s.blocksBeforeFlush {
					s.blocksBeforeFlush = true
					s.blockDetail = cal.blockDetail
					s.blockPos = cal.blockPos
					s.blockSite = cs
				}
				if cal.flushes {
					s.flushes = true
					flushed = true
					pending = ""
				}
				if cal.pending != "" {
					pending = cal.pending
					pendingSite = cs
				}
			}
		}
	}
	s.pending = pending
	s.pendingSite = pendingSite
	return s
}

// check walks one linearized op sequence reporting blocks reached with
// an unflushed enqueue pending — directly or inside a callee.
func check(mp *analysis.ModulePass, g *analysis.CallGraph, sums map[*analysis.FuncNode]*summary, ops []analysis.Op) {
	pending := ""
	for _, op := range ops {
		if op.Deferred {
			continue // runs at exit, after any in-body flush decision
		}
		switch {
		case op.Kind == analysis.OpCall && strings.HasPrefix(op.Detail, "enqueue:"):
			pending = strings.TrimPrefix(op.Detail, "enqueue:")
		case op.Kind == analysis.OpCall && strings.HasPrefix(op.Detail, "flush:"):
			pending = ""
		case op.Kind == analysis.OpBlock:
			if pending != "" {
				mp.Reportf(op.Pos,
					"blocking on %s while a batched doorbell may be pending after %s; flush (FlushTx/Kick/KickIfNeeded) before blocking",
					op.Detail, pending)
				pending = ""
			}
		case op.Kind == analysis.OpCall && op.Detail == "call":
			for _, cs := range g.SitesAt(op.Pos) {
				cal := sums[cs.Callee]
				if cal == nil {
					continue
				}
				if cal.blocksBeforeFlush && pending != "" {
					mp.ReportWitness(op.Pos, blockWitness(g, sums, cs),
						"call to %s blocks on %s while a batched doorbell may be pending after %s; flush (FlushTx/Kick/KickIfNeeded) before calling",
						cs.Callee.Key, cal.blockDetail, pending)
					pending = ""
					continue
				}
				if cal.flushes {
					pending = ""
				}
				if cal.pending != "" {
					pending = cal.pending
				}
			}
		}
	}
}

// blockWitness renders the call chain from a flagged call site down to
// the blocking operation it hides.
func blockWitness(g *analysis.CallGraph, sums map[*analysis.FuncNode]*summary, cs *analysis.CallSite) []string {
	out := []string{cs.Caller.Key}
	seen := map[*analysis.FuncNode]bool{cs.Caller: true}
	for {
		n := cs.Callee
		pos := g.Fset.Position(cs.Pos)
		out = append(out, fmt.Sprintf("→ %s (called at %s:%d)", n.Key, pos.Filename, pos.Line))
		if seen[n] {
			break
		}
		seen[n] = true
		s := sums[n]
		if s == nil || s.blockSite == nil {
			if s != nil && s.blockPos.IsValid() {
				bp := g.Fset.Position(s.blockPos)
				out = append(out, fmt.Sprintf("→ blocks on %s at %s:%d", s.blockDetail, bp.Filename, bp.Line))
			}
			break
		}
		cs = s.blockSite
	}
	return out
}

// varBoundFuncLits finds closures bound to a local variable by a
// single-assignment; Linearize splices those at their call sites.
func varBoundFuncLits(body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Obj != nil {
				if fl, ok := as.Rhs[0].(*ast.FuncLit); ok {
					out[fl] = true
				}
			}
		}
		return true
	})
	return out
}
