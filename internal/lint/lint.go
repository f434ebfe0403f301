// Package lint implements ravenlint, a from-scratch static-analysis
// engine built only on the Go standard library (go/parser, go/ast,
// go/token, go/types, go/importer). It loads every package in the
// module, type-checks them in dependency order, and runs a pluggable
// rule set encoding the repository's determinism, concurrency-safety,
// and library-hygiene invariants (DESIGN.md "Correctness tooling").
//
// Findings print as "file:line: [rule-id] message" and individual
// sites can be suppressed with a pragma comment on the same line or
// the line directly above:
//
//	//lint:allow <rule-id> <reason...>
//
// A pragma without a reason is itself a finding (pragma-syntax), so
// every suppression documents why the invariant does not apply.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position // Filename is module-relative when possible
	Rule string
	Msg  string
}

// String renders the canonical "file:line: [rule-id] message" form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Rule is one named invariant check, run once per package.
type Rule struct {
	ID    string
	Doc   string
	Check func(p *Package) []Finding
}

// DefaultRules returns the full repository rule set.
func DefaultRules() []Rule {
	return []Rule{
		ruleRandGlobal(),
		ruleWallClock(),
		ruleMapIterOrder(),
		ruleGoroutineOutsidePool(),
		ruleDeadlineOnConn(),
		ruleFloatEqual(),
		ruleUncheckedError(),
		ruleCkptAtomicWrite(),
		ruleShardLocalState(),
	}
}

// Options tunes a Run.
type Options struct {
	// StalePragmas reports //lint:allow pragmas that suppressed nothing
	// as pragma-stale findings. Only meaningful when the package set
	// covers everything the pragma could apply to (the whole module):
	// a partial run would call pragmas stale merely because their
	// package was not selected.
	StalePragmas bool
}

// RunOpts executes rules over pkgs, applies pragma suppression, and
// returns findings sorted by file, line, column, and rule.
func RunOpts(pkgs []*Package, rules []Rule, opts Options) []Finding {
	known := make(map[string]bool)
	for _, r := range rules {
		known[r.ID] = true
	}

	// Merge pragmas across the whole set first: stale detection needs
	// the global view.
	pragmas := newPragmaSet()
	var out []Finding
	for _, p := range pkgs {
		out = append(out, pragmas.collect(p, known)...)
	}

	for _, p := range pkgs {
		for _, r := range rules {
			for _, f := range r.Check(p) {
				if !pragmas.suppresses(f) {
					out = append(out, f)
				}
			}
		}
	}
	if opts.StalePragmas {
		out = append(out, pragmas.stale()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// ---- shared helpers used by the rule implementations ----

// finding builds a Finding at pos with a module-relative filename.
func (p *Package) finding(rule string, pos token.Pos, format string, args ...interface{}) Finding {
	return Finding{Pos: p.relPosition(pos), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

func (p *Package) relPosition(pos token.Pos) token.Position {
	position := p.Fset.Position(pos)
	if p.ModuleRoot != "" {
		if rel, err := filepath.Rel(p.ModuleRoot, position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			position.Filename = filepath.ToSlash(rel)
		}
	}
	return position
}

// relFile returns the module-relative path of the file, slash-separated.
func (p *Package) relFile(f *ast.File) string {
	return p.relPosition(f.Package).Filename
}

// underDirs reports whether relfile lives under any of the given
// module-relative directory prefixes.
func underDirs(relfile string, dirs ...string) bool {
	for _, d := range dirs {
		if relfile == d || strings.HasPrefix(relfile, d+"/") {
			return true
		}
	}
	return false
}

// funcObj resolves the called function or method of call, or nil.
func (p *Package) funcObj(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// calleeIs reports whether call invokes pkgPath.name (package-level
// function or method defined in pkgPath), resolved through type info
// so import aliasing cannot fool it.
func (p *Package) calleeIs(call *ast.CallExpr, pkgPath, name string) bool {
	fn := p.funcObj(call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// calleePkg returns the defining package path of the called function
// or method, or "".
func (p *Package) calleePkg(call *ast.CallExpr) string {
	fn := p.funcObj(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isBuiltin reports whether call invokes the named builtin (append,
// panic, ...).
func (p *Package) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// rootIdent strips selectors, indexing, stars, and parens down to the
// base identifier of an lvalue; indexed reports whether the path went
// through an index expression (distinct-element writes like out[i]).
func rootIdent(e ast.Expr) (id *ast.Ident, indexed bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, indexed
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
			indexed = true
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, indexed
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// varOf returns the *types.Var an identifier denotes, or nil.
func (p *Package) varOf(id *ast.Ident) *types.Var {
	if id == nil {
		return nil
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := p.Info.Defs[id].(*types.Var)
	return v
}

// eachFunc invokes fn for every function declaration with a body.
func (p *Package) eachFunc(fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}

// mentionsObj reports whether any identifier inside node resolves to obj.
func (p *Package) mentionsObj(node ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// containsCallTo reports whether node contains a call to pkgPath.name.
func (p *Package) containsCallTo(node ast.Node, pkgPath, name string) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && p.calleeIs(call, pkgPath, name) {
			found = true
		}
		return !found
	})
	return found
}
