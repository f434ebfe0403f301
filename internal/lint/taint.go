package lint

import (
	"go/ast"
	"go/types"
)

// Determinism-taint summaries. For every function of the module the
// graph computes which nondeterminism sources — wall clock, global
// math/rand, map iteration order — can flow into its return values.
// The analysis is flow-insensitive inside a function (a variable's
// taint is the union over all its assignments) with control taint
// (assignments under a tainted branch condition inherit the
// condition's taint), and summary-based across functions: a call's
// taint is the callee's return-taint summary, iterated module-wide to
// a fixpoint.
//
// Deliberate limitations, tuned to the repo's idioms:
//
//   - arguments do not flow through in-module calls (summaries only);
//     passing a timestamp into a metrics sink therefore does NOT taint
//     the caller, which keeps the sim's timing instrumentation clean.
//     Out-of-module (stdlib) calls DO propagate argument and receiver
//     taint, so now.UnixNano() or math.Mod(clockVal, x) stay tainted.
//   - methods on seeded *rand.Rand values are not sources: seeded
//     generators are the sanctioned determinism mechanism (stats.NewRNG).
//     Only package-level math/rand functions (the process-global
//     generator) taint.
//   - map iteration taints only values selected CONDITIONALLY during a
//     map range (mirroring the intra-procedural map-iter-order rule):
//     commutative reductions over a map stay clean.
//   - taint through captured closure variables is not tracked.

// computeTaintSummaries iterates per-function taint to a module-wide
// fixpoint. Summaries only grow, so the pass count is bounded by the
// longest acyclic summary-dependency chain; the cap is generous.
func (g *Graph) computeTaintSummaries() {
	for pass := 0; pass < 16; pass++ {
		changed := false
		for _, n := range g.Nodes {
			if g.taintNode(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// taintNode recomputes n's return-taint from scratch against current
// callee summaries and reports whether the summary grew.
func (g *Graph) taintNode(n *FuncNode) bool {
	if n.body() == nil {
		return false // assembly: its callers model it as a stdlib call
	}
	tw := &taintWalker{g: g, n: n, vars: make(map[*types.Var]taintMask)}

	// Named result parameters participate in bare returns.
	var results *ast.FieldList
	if n.Decl != nil {
		results = n.Decl.Type.Results
	} else {
		results = n.Lit.Type.Results
	}
	if results != nil {
		for _, field := range results.List {
			for _, name := range field.Names {
				if v, ok := n.Pkg.Info.Defs[name].(*types.Var); ok {
					tw.resultVars = append(tw.resultVars, v)
				}
			}
		}
	}

	// Local fixpoint: var taint is monotone under re-walking.
	for local := 0; local < 6; local++ {
		tw.grew = false
		tw.walkStmts(n.body().List, 0)
		if !tw.grew {
			break
		}
	}

	grown := tw.ret&^n.retTaint != 0
	n.retTaint |= tw.ret
	for _, bit := range []taintMask{taintClock, taintRand, taintMapOrder} {
		if tw.ret&bit != 0 && tw.orig(bit).pkg != nil {
			n.setOrigin(bit, tw.orig(bit))
		}
	}
	return grown
}

// taintWalker carries the per-function analysis state.
type taintWalker struct {
	g          *Graph
	n          *FuncNode
	vars       map[*types.Var]taintMask
	resultVars []*types.Var
	ret        taintMask
	origins    [3]taintOrigin
	grew       bool

	// map-range context: the key/value variables of the innermost map
	// range, and whether we are under an if inside it.
	mapRangeVars map[*types.Var]bool
	inMapRangeIf bool
}

func taintBitIndex(bit taintMask) int {
	switch bit {
	case taintClock:
		return 0
	case taintRand:
		return 1
	}
	return 2
}

func (tw *taintWalker) orig(bit taintMask) taintOrigin { return tw.origins[taintBitIndex(bit)] }

func (tw *taintWalker) addOrigin(mask taintMask, o taintOrigin) {
	for _, bit := range []taintMask{taintClock, taintRand, taintMapOrder} {
		if mask&bit != 0 && tw.origins[taintBitIndex(bit)].pkg == nil {
			tw.origins[taintBitIndex(bit)] = o
		}
	}
}

func (tw *taintWalker) setVar(v *types.Var, mask taintMask) {
	if v == nil || mask == 0 {
		return
	}
	if tw.vars[v]&mask != mask {
		tw.vars[v] |= mask
		tw.grew = true
	}
}

// walkStmts walks a statement list under the given control taint.
func (tw *taintWalker) walkStmts(stmts []ast.Stmt, ctl taintMask) {
	for _, s := range stmts {
		tw.walkStmt(s, ctl)
	}
}

func (tw *taintWalker) walkStmt(s ast.Stmt, ctl taintMask) {
	switch x := s.(type) {
	case *ast.AssignStmt:
		tw.assign(x, ctl)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					mask := tw.exprTaint(vs.Values[i]) | ctl
					if v, ok := tw.n.Pkg.Info.Defs[name].(*types.Var); ok {
						tw.setVar(v, mask)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		mask := ctl
		if len(x.Results) == 0 {
			for _, rv := range tw.resultVars {
				mask |= tw.vars[rv]
			}
		}
		for _, r := range x.Results {
			mask |= tw.exprTaint(r)
		}
		if tw.ret&mask != mask {
			tw.ret |= mask
			tw.grew = true
		}
	case *ast.IfStmt:
		if x.Init != nil {
			tw.walkStmt(x.Init, ctl)
		}
		c := ctl | tw.exprTaint(x.Cond)
		savedIf := tw.inMapRangeIf
		if tw.mapRangeVars != nil {
			tw.inMapRangeIf = true
		}
		tw.walkStmts(x.Body.List, c)
		if x.Else != nil {
			tw.walkStmt(x.Else, c)
		}
		tw.inMapRangeIf = savedIf
	case *ast.BlockStmt:
		tw.walkStmts(x.List, ctl)
	case *ast.ForStmt:
		if x.Init != nil {
			tw.walkStmt(x.Init, ctl)
		}
		c := ctl
		if x.Cond != nil {
			c |= tw.exprTaint(x.Cond)
		}
		if x.Post != nil {
			tw.walkStmt(x.Post, c)
		}
		tw.walkStmts(x.Body.List, c)
	case *ast.RangeStmt:
		tw.walkRange(x, ctl)
	case *ast.SwitchStmt:
		if x.Init != nil {
			tw.walkStmt(x.Init, ctl)
		}
		c := ctl
		if x.Tag != nil {
			c |= tw.exprTaint(x.Tag)
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				tw.walkStmts(clause.Body, c)
			}
		}
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			tw.walkStmt(x.Init, ctl)
		}
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				tw.walkStmts(clause.Body, ctl)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range x.Body.List {
			if clause, ok := cc.(*ast.CommClause); ok {
				tw.walkStmts(clause.Body, ctl)
			}
		}
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt,
		*ast.IncDecStmt, *ast.BranchStmt, *ast.LabeledStmt, *ast.EmptyStmt:
		if ls, ok := s.(*ast.LabeledStmt); ok {
			tw.walkStmt(ls.Stmt, ctl)
		}
	}
}

// walkRange handles for-range statements; ranging over a map arms the
// map-iteration-order source for conditional selections in the body.
func (tw *taintWalker) walkRange(x *ast.RangeStmt, ctl taintMask) {
	p := tw.n.Pkg
	isMap := false
	if t := p.Info.TypeOf(x.X); t != nil {
		_, isMap = t.Underlying().(*types.Map)
	}

	c := ctl | tw.exprTaint(x.X)

	savedVars, savedIf := tw.mapRangeVars, tw.inMapRangeIf
	if isMap {
		tw.mapRangeVars = make(map[*types.Var]bool)
		tw.inMapRangeIf = false
		for _, e := range []ast.Expr{x.Key, x.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v := p.varOf(id); v != nil {
					tw.mapRangeVars[v] = true
				}
			}
		}
	}
	tw.walkStmts(x.Body.List, c)
	tw.mapRangeVars, tw.inMapRangeIf = savedVars, savedIf
}

// assign propagates RHS taint into LHS variables, plus the
// map-iteration-order source: an assignment under an if inside a map
// range whose RHS mentions the range key/value taints the target with
// map-order (the selected element depends on which key came first).
func (tw *taintWalker) assign(x *ast.AssignStmt, ctl taintMask) {
	p := tw.n.Pkg
	rhsTaint := func(e ast.Expr) taintMask {
		mask := tw.exprTaint(e) | ctl
		if tw.mapRangeVars != nil && tw.inMapRangeIf {
			for v := range tw.mapRangeVars {
				if p.mentionsObj(e, v) {
					mask |= taintMapOrder
					tw.addOrigin(taintMapOrder, taintOrigin{
						pkg: p, pos: x.Pos(), via: "conditional selection during map iteration",
					})
					break
				}
			}
		}
		return mask
	}

	if len(x.Lhs) == len(x.Rhs) {
		for i := range x.Lhs {
			mask := rhsTaint(x.Rhs[i])
			if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
				tw.setVar(p.varOf(id), mask)
			} else if root, _ := rootIdent(x.Lhs[i]); root != nil {
				// Writing through a field/index: taint the container
				// coarsely so later reads of it see the taint.
				tw.setVar(p.varOf(root), mask)
			}
		}
		return
	}
	if len(x.Rhs) == 1 { // multi-value call or comma-ok
		mask := rhsTaint(x.Rhs[0])
		for _, lhs := range x.Lhs {
			if root, _ := rootIdent(lhs); root != nil {
				tw.setVar(p.varOf(root), mask)
			}
		}
	}
}

// exprTaint computes the taint carried by an expression's value.
func (tw *taintWalker) exprTaint(e ast.Expr) taintMask {
	if e == nil {
		return 0
	}
	p := tw.n.Pkg
	switch x := e.(type) {
	case *ast.Ident:
		if v := p.varOf(x); v != nil {
			return tw.vars[v]
		}
	case *ast.SelectorExpr:
		// Field read: coarse container taint from the base expression.
		if _, ok := p.Info.Uses[x.Sel].(*types.Var); ok {
			return tw.exprTaint(x.X)
		}
	case *ast.CallExpr:
		return tw.callTaint(x)
	case *ast.BinaryExpr:
		return tw.exprTaint(x.X) | tw.exprTaint(x.Y)
	case *ast.UnaryExpr:
		return tw.exprTaint(x.X)
	case *ast.ParenExpr:
		return tw.exprTaint(x.X)
	case *ast.StarExpr:
		return tw.exprTaint(x.X)
	case *ast.IndexExpr:
		return tw.exprTaint(x.X) | tw.exprTaint(x.Index)
	case *ast.SliceExpr:
		return tw.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return tw.exprTaint(x.X)
	case *ast.CompositeLit:
		var mask taintMask
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				mask |= tw.exprTaint(kv.Value)
			} else {
				mask |= tw.exprTaint(el)
			}
		}
		return mask
	}
	return 0
}

// callTaint computes the taint of a call expression's results.
func (tw *taintWalker) callTaint(call *ast.CallExpr) taintMask {
	p := tw.n.Pkg

	// Type conversion: the value passes through.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return tw.exprTaint(call.Args[0])
	}
	// Builtins: len/cap/min/max/append/copy pass operand taint through.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := p.Info.Uses[id].(*types.Builtin); isB {
			var mask taintMask
			for _, a := range call.Args {
				mask |= tw.exprTaint(a)
			}
			return mask
		}
	}

	fn := p.funcObj(call)
	if fn == nil {
		// Call through a function value: union of target summaries.
		var mask taintMask
		for _, target := range tw.g.resolveFuncExpr(p, call.Fun) {
			mask |= target.retTaint
			tw.inheritOrigins(target, target.retTaint)
		}
		return mask
	}

	sig, _ := fn.Type().(*types.Signature)
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	isMethod := sig != nil && sig.Recv() != nil

	// Sources.
	if pkgPath == "time" && !isMethod && clockFuncs[fn.Name()] {
		tw.addOrigin(taintClock, taintOrigin{pkg: p, pos: call.Pos(), via: "time." + fn.Name()})
		return taintClock
	}
	if pkgPath == "math/rand" && !isMethod && !randConstructors[fn.Name()] {
		// Package-level draw functions use the process-global,
		// nondeterministically seeded generator. Methods on seeded
		// *rand.Rand values are fine (excluded by isMethod), and so are
		// the explicit-seed constructors (rand.New, rand.NewSource,
		// rand.NewZipf — the same set rand-global exempts).
		tw.addOrigin(taintRand, taintOrigin{pkg: p, pos: call.Pos(), via: "math/rand." + fn.Name()})
		return taintRand
	}

	// Interface dispatch: union over in-module implementers.
	if isMethod {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			var mask taintMask
			for _, impl := range tw.g.ifaceMethodImpls(fn) {
				mask |= impl.retTaint
				tw.inheritOrigins(impl, impl.retTaint)
			}
			return mask
		}
	}

	// In-module callee: summary only (arguments do not pass through).
	if callee := tw.g.byObj[fn]; callee != nil && callee.body() != nil {
		tw.inheritOrigins(callee, callee.retTaint)
		return callee.retTaint
	}

	// Out-of-module (stdlib) or assembly, neither with a body to
	// summarize: value-transforming by default — union of receiver and
	// argument taint (now.UnixNano(), math.Mod(t, x), ...).
	var mask taintMask
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isMethod {
		mask |= tw.exprTaint(sel.X)
	}
	for _, a := range call.Args {
		mask |= tw.exprTaint(a)
	}
	return mask
}

// inheritOrigins copies the callee's representative origins for the
// given taint bits into this walker, first-wins.
func (tw *taintWalker) inheritOrigins(callee *FuncNode, mask taintMask) {
	for _, bit := range []taintMask{taintClock, taintRand, taintMapOrder} {
		if mask&bit != 0 {
			if o := callee.origin(bit); o.pkg != nil {
				tw.addOrigin(bit, o)
			}
		}
	}
}
