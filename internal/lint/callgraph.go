package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file builds ravenlint's interprocedural layer: a module-wide,
// type-resolved call graph with per-function lock sites. The
// intra-procedural rules see one function at a time; the call graph
// lets lock-cycle reason about whole call chains — "no path
// re-acquires a held shard lock" (DESIGN.md "Correctness tooling").
//
// Resolution, in decreasing order of precision:
//
//   - static calls and method calls resolve through go/types to their
//     declaration;
//   - interface method calls resolve to every in-module named type
//     implementing the interface (types.Implements over both T and *T);
//   - calls through function values (struct fields, locals, parameters)
//     resolve to every function literal, declared function, or method
//     value assigned to / passed as that variable anywhere in the
//     module, computed to a fixpoint so chains like
//     `fn := func(i int) {…}; each(n, fn)` link each's `fn(i)` to
//     that literal.
//
// Out-of-module (stdlib) callees have no bodies here and get no edge.
// In-module assembly functions are nodes without a body: leaves.

// LockSite is one lock acquisition inside a function, together with
// the source region over which the lock is considered held: from the
// Lock call to the matching same-class Unlock, or to the end of the
// function when the unlock is deferred (or absent).
type LockSite struct {
	Class string // qualified lock identity, e.g. "raven/internal/cache.shard.mu"
	RLock bool
	Pos   token.Pos
	End   token.Pos
}

// Edge is one resolved call from a function to another module
// function. Kind records how the callee was resolved.
type Edge struct {
	To   *FuncNode
	Pos  token.Pos
	Kind string // "static", "interface", "funcval", "literal"
}

// FuncNode is one function (declared function, method, or function
// literal) of the module under analysis.
type FuncNode struct {
	Name string // stable display name, e.g. "internal/core.(*Raven).Victim" or "internal/nn.forkJoin$1"
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions

	Locks []LockSite
	Calls []Edge
}

// body returns the function's body, nil for an assembly declaration.
func (n *FuncNode) body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Graph is the module call graph plus the indexes rules need.
type Graph struct {
	Nodes []*FuncNode
	Pkgs  []*Package

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// funcTargets maps a func-typed variable (struct field, local,
	// package-level var, or parameter) to every function that is ever
	// assigned to / passed as it anywhere in the module.
	funcTargets map[*types.Var][]*FuncNode

	// ifaceImpls caches interface-method resolution keyed by the
	// interface method's *types.Func.
	ifaceImpls map[*types.Func][]*FuncNode

	// namedTypes is every named (non-interface) type declared in the
	// module, in deterministic order, for implements queries.
	namedTypes []*types.Named
}

// BuildGraph constructs the call graph over the given packages
// (normally the whole module: interprocedural closures are only as
// complete as the package set they are built from).
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		Pkgs:        pkgs,
		byObj:       make(map[*types.Func]*FuncNode),
		byLit:       make(map[*ast.FuncLit]*FuncNode),
		funcTargets: make(map[*types.Var][]*FuncNode),
		ifaceImpls:  make(map[*types.Func][]*FuncNode),
	}
	g.collectNodes()
	g.collectNamedTypes()
	g.collectFuncTargets()
	g.collectEdgesAndLocks()
	return g
}

// nodeName builds the stable display name of a declared function.
func nodeName(p *Package, decl *ast.FuncDecl) string {
	prefix := p.RelDir
	if prefix == "" {
		prefix = p.Name
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 {
		recv := decl.Recv.List[0].Type
		var b strings.Builder
		if star, ok := recv.(*ast.StarExpr); ok {
			b.WriteString("*")
			recv = star.X
		}
		for {
			switch t := recv.(type) {
			case *ast.Ident:
				b.WriteString(t.Name)
				return fmt.Sprintf("%s.(%s).%s", prefix, b.String(), decl.Name.Name)
			case *ast.IndexExpr: // generic receiver T[P]
				recv = t.X
			case *ast.IndexListExpr:
				recv = t.X
			default:
				return fmt.Sprintf("%s.(?).%s", prefix, decl.Name.Name)
			}
		}
	}
	return prefix + "." + decl.Name.Name
}

// collectNodes creates one node per function declaration and function
// literal, in deterministic source order. A declaration without a body
// (its code is assembly) is a pure leaf: no calls and no locks.
func (g *Graph) collectNodes() {
	for _, p := range g.Pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				n := &FuncNode{Name: nodeName(p, decl), Pkg: p, Decl: decl}
				if obj, ok := p.Info.Defs[decl.Name].(*types.Func); ok {
					g.byObj[obj] = n
				}
				g.Nodes = append(g.Nodes, n)
				if decl.Body == nil {
					continue // implemented in assembly: a pure leaf
				}
				// Nested literals become their own nodes, numbered in
				// source order within the declaration.
				ord := 0
				ast.Inspect(decl.Body, func(m ast.Node) bool {
					if lit, ok := m.(*ast.FuncLit); ok {
						ord++
						ln := &FuncNode{Name: fmt.Sprintf("%s$%d", n.Name, ord), Pkg: p, Lit: lit}
						g.Nodes = append(g.Nodes, ln)
						g.byLit[lit] = ln
					}
					return true
				})
			}
		}
	}
}

// collectNamedTypes gathers every named non-interface type declared in
// the module, in deterministic (package, name) order.
func (g *Graph) collectNamedTypes() {
	for _, p := range g.Pkgs {
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() { // Scope.Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			g.namedTypes = append(g.namedTypes, named)
		}
	}
}

// resolveFuncExpr resolves an expression of function type to the
// module functions it can denote: a literal, a declared function, a
// method value, or a variable holding any of those.
func (g *Graph) resolveFuncExpr(p *Package, e ast.Expr) []*FuncNode {
	switch x := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := g.byLit[x]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.Ident:
		switch obj := p.Info.Uses[x].(type) {
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return []*FuncNode{n}
			}
		case *types.Var:
			return g.funcTargets[obj]
		}
	case *ast.SelectorExpr:
		switch obj := p.Info.Uses[x.Sel].(type) {
		case *types.Func: // method value or qualified function
			if n := g.byObj[obj]; n != nil {
				return []*FuncNode{n}
			}
		case *types.Var: // struct field or imported package var
			return g.funcTargets[obj]
		}
	}
	return nil
}

// addTargets appends nodes to the variable's target list, deduplicated
// in insertion order, and reports whether anything was added.
func (g *Graph) addTargets(v *types.Var, nodes []*FuncNode) bool {
	if v == nil || len(nodes) == 0 {
		return false
	}
	cur := g.funcTargets[v]
	grew := false
	for _, n := range nodes {
		dup := false
		for _, c := range cur {
			if c == n {
				dup = true
				break
			}
		}
		if !dup {
			cur = append(cur, n)
			grew = true
		}
	}
	g.funcTargets[v] = cur
	return grew
}

// funcTypedVar returns the *types.Var an assignable expression denotes
// when that variable has function type, else nil.
func (g *Graph) funcTypedVar(p *Package, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = p.Info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = p.Info.ObjectOf(x.Sel)
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v == nil {
		return nil
	}
	if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
		return nil
	}
	return v
}

// collectFuncTargets computes, to a fixpoint, the set of functions
// each func-typed variable can hold: direct assignments, composite
// literal fields, var declarations, and arguments bound to func-typed
// parameters of in-module functions.
func (g *Graph) collectFuncTargets() {
	for pass := 0; pass < 8; pass++ {
		grew := false
		for _, p := range g.Pkgs {
			for _, f := range p.Files {
				ast.Inspect(f, func(m ast.Node) bool {
					switch x := m.(type) {
					case *ast.AssignStmt:
						if len(x.Lhs) != len(x.Rhs) {
							return true
						}
						for i := range x.Lhs {
							if v := g.funcTypedVar(p, x.Lhs[i]); v != nil {
								grew = g.addTargets(v, g.resolveFuncExpr(p, x.Rhs[i])) || grew
							}
						}
					case *ast.ValueSpec:
						for i, name := range x.Names {
							if i >= len(x.Values) {
								break
							}
							if v, ok := p.Info.Defs[name].(*types.Var); ok && v != nil {
								if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
									grew = g.addTargets(v, g.resolveFuncExpr(p, x.Values[i])) || grew
								}
							}
						}
					case *ast.CompositeLit:
						for _, el := range x.Elts {
							kv, ok := el.(*ast.KeyValueExpr)
							if !ok {
								continue
							}
							key, ok := kv.Key.(*ast.Ident)
							if !ok {
								continue
							}
							if v, ok := p.Info.Uses[key].(*types.Var); ok {
								if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
									grew = g.addTargets(v, g.resolveFuncExpr(p, kv.Value)) || grew
								}
							}
						}
					case *ast.CallExpr:
						// Bind func-typed arguments to the callee's parameters.
						fn := p.funcObj(x)
						if fn == nil {
							return true
						}
						callee := g.byObj[fn]
						if callee == nil || callee.Decl == nil {
							return true
						}
						params := calleeParamVars(callee)
						for i, arg := range x.Args {
							if i >= len(params) || params[i] == nil {
								continue
							}
							grew = g.addTargets(params[i], g.resolveFuncExpr(p, arg)) || grew
						}
					}
					return true
				})
			}
		}
		if !grew {
			return
		}
	}
}

// calleeParamVars returns the parameter *types.Var of each positional
// parameter of a declared function (nil for blank or unresolved).
func calleeParamVars(n *FuncNode) []*types.Var {
	var out []*types.Var
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			v, _ := n.Pkg.Info.Defs[name].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// ifaceMethodImpls resolves an interface method to every in-module
// implementation, cached per interface method object.
func (g *Graph) ifaceMethodImpls(fn *types.Func) []*FuncNode {
	if impls, ok := g.ifaceImpls[fn]; ok {
		return impls
	}
	sig, _ := fn.Type().(*types.Signature)
	var out []*FuncNode
	if sig != nil && sig.Recv() != nil {
		iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
		if iface != nil {
			for _, named := range g.namedTypes {
				t := types.Type(named)
				if !types.Implements(t, iface) {
					t = types.NewPointer(named)
					if !types.Implements(t, iface) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), fn.Name())
				m, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if n := g.byObj[m]; n != nil {
					out = append(out, n)
				}
			}
		}
	}
	g.ifaceImpls[fn] = out
	return out
}

// addEdge appends a call edge; a nil callee (out-of-module) adds none.
func (n *FuncNode) addEdge(to *FuncNode, pos token.Pos, kind string) {
	if to == nil {
		return
	}
	n.Calls = append(n.Calls, Edge{To: to, Pos: pos, Kind: kind})
}

// collectEdgesAndLocks walks every node body once, recording call
// edges and lock regions.
func (g *Graph) collectEdgesAndLocks() {
	for _, n := range g.Nodes {
		g.walkNode(n)
	}
}

// ownStmts walks the statements belonging to node n itself, stopping
// at nested function literals (they are separate nodes).
func ownStmts(n *FuncNode, visit func(ast.Node) bool) {
	body := n.body()
	ast.Inspect(body, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if m == nil {
			return true
		}
		return visit(m)
	})
}

// lockEvent is a raw Lock/Unlock observation used to build LockSites.
type lockEvent struct {
	class    string
	pos      token.Pos
	unlock   bool
	rlock    bool
	deferred bool
}

func (g *Graph) walkNode(n *FuncNode) {
	if n.body() == nil {
		return
	}
	var lockEvents []lockEvent
	deferred := make(map[ast.Node]bool)

	ownStmts(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.DeferStmt:
			deferred[x.Call] = true
		case *ast.CallExpr:
			g.walkCall(n, x, &lockEvents, deferred[x])
		}
		return true
	})

	n.Locks = buildLockSites(lockEvents, n.body().End())
}

// walkCall classifies one call expression: lock event or call edge.
func (g *Graph) walkCall(n *FuncNode, call *ast.CallExpr, lockEvents *[]lockEvent, isDeferred bool) {
	p := n.Pkg

	fn := p.funcObj(call)
	if fn != nil {
		// Lock/Unlock on sync primitives.
		if cls, rlock, unlock, ok := lockCall(p, call, fn); ok {
			*lockEvents = append(*lockEvents, lockEvent{
				class: cls, pos: call.Pos(), unlock: unlock, rlock: rlock, deferred: isDeferred,
			})
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				for _, impl := range g.ifaceMethodImpls(fn) {
					n.addEdge(impl, call.Pos(), "interface")
				}
				return
			}
		}
		n.addEdge(g.byObj[fn], call.Pos(), "static") // nil for out-of-module callees: no edge
		return
	}

	// Call through a function value (literal, variable, field, param).
	for _, target := range g.resolveFuncExpr(p, call.Fun) {
		kind := "funcval"
		if target.Lit != nil && ast.Unparen(call.Fun) == target.Lit {
			kind = "literal"
		}
		n.addEdge(target, call.Pos(), kind)
	}
}

// lockCall reports whether call is Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, and the lock's class identity.
func lockCall(p *Package, call *ast.CallExpr, fn *types.Func) (class string, rlock, unlock, ok bool) {
	name := fn.Name()
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", false, false, false
	}
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", false, false, false
	}
	recv, _ := types.Unalias(deref(sig.Recv().Type())).(*types.Named)
	if recv == nil || (recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return "", false, false, false
	}
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", false, false, false
	}
	cls := lockClass(p, sel.X)
	return cls, strings.HasPrefix(name, "R"), strings.Contains(name, "Unlock"), true
}

func deref(t types.Type) types.Type {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// lockClass derives a stable identity for the locked mutex: a struct
// field becomes "pkgpath.OwnerType.field", a package-level variable
// "pkgpath.var". Locals and parameters get a position-qualified class
// that never matches across functions (their aliasing is unknowable
// statically, so the lock-cycle rule stays silent about them).
func lockClass(p *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := p.Info.Selections[x]; ok {
			if v, ok := selInfo.Obj().(*types.Var); ok && v.IsField() {
				owner := deref(selInfo.Recv())
				ownerName := owner.String()
				if named, ok := types.Unalias(owner).(*types.Named); ok {
					ownerName = named.Obj().Name()
					if named.Obj().Pkg() != nil {
						ownerName = named.Obj().Pkg().Path() + "." + ownerName
					}
				}
				return ownerName + "." + v.Name()
			}
		}
		if v, ok := p.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Path() + "." + v.Name() // imported package-level var
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[x].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
			return fmt.Sprintf("local@%d.%s", v.Pos(), v.Name())
		}
	}
	return fmt.Sprintf("expr@%d", e.Pos())
}

// buildLockSites pairs Lock events with their closing Unlock: a
// deferred unlock (or none) extends the held region to the end of the
// function; otherwise the region closes at the first later same-class
// unlock.
func buildLockSites(events []lockEvent, bodyEnd token.Pos) []LockSite {
	var out []LockSite
	for i, ev := range events {
		if ev.unlock {
			continue
		}
		end := bodyEnd
		for j := i + 1; j < len(events); j++ {
			u := events[j]
			if u.unlock && u.class == ev.class && !u.deferred && u.pos > ev.pos {
				end = u.pos
				break
			}
		}
		out = append(out, LockSite{Class: ev.class, RLock: ev.rlock, Pos: ev.pos, End: end})
	}
	return out
}
