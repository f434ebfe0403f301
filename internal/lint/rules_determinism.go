package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ravenRNGFile is the one file allowed to touch math/rand directly:
// everything else must go through the seeded stats.RNG it defines.
const ravenRNGFile = "internal/stats/rng.go"

// randConstructors are math/rand package functions that do NOT draw
// from the global source and are therefore allowed (they build
// explicit, seedable generators).
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// ruleRandGlobal flags uses of math/rand's implicit global source and
// time-seeded generators. Replaying the paper's tables requires every
// random draw to come from an explicitly seeded stats.RNG: the global
// source is both nondeterministic across runs (Go seeds it randomly)
// and a contention point across parallel experiment shards.
func ruleRandGlobal() Rule {
	const id = "rand-global"
	return Rule{
		ID:  id,
		Doc: "no math/rand global-source functions or time-seeded generators outside " + ravenRNGFile,
		Check: func(p *Package) []Finding {
			var out []Finding
			for _, f := range p.Files {
				if p.relFile(f) == ravenRNGFile {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := p.funcObj(call)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					pkg := fn.Pkg().Path()
					if pkg != "math/rand" && pkg != "math/rand/v2" {
						return true
					}
					if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
						return true // methods on an explicit *rand.Rand are fine
					}
					if !randConstructors[fn.Name()] {
						out = append(out, p.finding(id, call.Pos(),
							"%s.%s draws from the global source; use the seeded stats.RNG instead", pkg, fn.Name()))
						return true
					}
					if p.containsCallTo(call, "time", "Now") {
						out = append(out, p.finding(id, call.Pos(),
							"time-seeded %s.%s is nondeterministic; seed from configuration instead", pkg, fn.Name()))
					}
					return true
				})
			}
			return out
		},
	}
}

// wallClockAllowed lists the module-relative directories where reading
// the wall clock is legitimate: benchmarking and overhead measurement
// (internal/experiments), the simulator's eviction-compute timing
// wrappers (internal/sim), the live TCP server (internal/server), and
// the cluster tier's health probing / retry backoff (internal/cluster,
// which measures real node latency and real cool-down intervals).
// Package main (cmd/, examples/) is also exempt.
var wallClockAllowed = []string{
	"internal/experiments",
	"internal/sim",
	"internal/server",
	"internal/cluster",
}

// clockFuncs are the time package's wall-clock reads the wall-clock
// rule flags.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// ruleWallClock flags time.Now/Since/Until in simulation/policy
// library code. Policies and trace generators must run on trace time
// (request timestamps), never wall time, or replays stop being
// reproducible.
func ruleWallClock() Rule {
	const id = "wall-clock"
	return Rule{
		ID:  id,
		Doc: "no time.Now/Since/Until in policy/trace/library code; trace time only (allowlist: experiments, sim timing, server, cluster)",
		Check: func(p *Package) []Finding {
			if p.Name == "main" {
				return nil
			}
			var out []Finding
			for _, f := range p.Files {
				if underDirs(p.relFile(f), wallClockAllowed...) {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || p.calleePkg(call) != "time" {
						return true
					}
					if name := p.funcObj(call).Name(); clockFuncs[name] {
						out = append(out, p.finding(id, call.Pos(),
							"time.%s in library code breaks replay determinism; use trace timestamps", name))
					}
					return true
				})
			}
			return out
		},
	}
}

// orderSensitiveWriters are method names that emit ordered output.
var orderSensitiveWriters = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// ruleMapIterOrder flags map-range loops whose iteration order leaks
// into ordered results: appending to an outer slice that is never
// sorted, emitting output directly, or selecting a key (an eviction
// victim, a best candidate) under a condition. Go randomizes map
// iteration order per run, so any of these makes output or eviction
// decisions nondeterministic.
func ruleMapIterOrder() Rule {
	const id = "map-iter-order"
	return Rule{
		ID:  id,
		Doc: "map-range order must not feed serialized output or eviction decisions without sorting",
		Check: func(p *Package) []Finding {
			var out []Finding
			p.eachFunc(func(file *ast.File, decl *ast.FuncDecl) {
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					t := p.Info.TypeOf(rs.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					out = append(out, p.checkMapRange(decl, rs)...)
					return true
				})
			})
			return out
		},
	}
}

func (p *Package) checkMapRange(decl *ast.FuncDecl, rs *ast.RangeStmt) []Finding {
	const id = "map-iter-order"
	var out []Finding
	keyObj := p.rangeVarObj(rs.Key)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && p.emitsOrderedOutput(call) {
				out = append(out, p.finding(id, call.Pos(),
					"writing output while ranging over a map leaks iteration order; collect and sort keys first"))
			}
		case *ast.AssignStmt:
			for i, lhs := range stmt.Lhs {
				var rhs ast.Expr
				if len(stmt.Rhs) == len(stmt.Lhs) {
					rhs = stmt.Rhs[i]
				} else if len(stmt.Rhs) == 1 {
					rhs = stmt.Rhs[0]
				}
				out = append(out, p.checkMapRangeAssign(decl, rs, keyObj, stmt, lhs, rhs)...)
			}
		}
		return true
	})
	return out
}

// rangeVarObj resolves the object of a range key/value identifier.
func (p *Package) rangeVarObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

func (p *Package) emitsOrderedOutput(call *ast.CallExpr) bool {
	if fn := p.funcObj(call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
			return true
		}
		if fn.Type().(*types.Signature).Recv() != nil && orderSensitiveWriters[fn.Name()] {
			return true
		}
	}
	return false
}

func (p *Package) checkMapRangeAssign(decl *ast.FuncDecl, rs *ast.RangeStmt, keyObj types.Object,
	stmt *ast.AssignStmt, lhs, rhs ast.Expr) []Finding {
	const id = "map-iter-order"
	root, indexed := rootIdent(lhs)
	if root == nil || indexed || root.Name == "_" {
		return nil
	}
	obj := p.varOf(root)
	if obj == nil || declaredWithin(obj, rs) {
		return nil
	}
	// Accumulation via append into an outer slice: fine only if the
	// function also sorts that slice (or hands it to sort/slices).
	if call, ok := rhs.(*ast.CallExpr); ok && p.isBuiltin(call, "append") {
		if p.sortedInFunc(decl, obj) {
			return nil
		}
		return []Finding{p.finding(id, stmt.Pos(),
			"appending %s while ranging over a map without sorting it makes its order nondeterministic", root.Name)}
	}
	// Selection: assigning something derived from the map KEY to an
	// outer variable under a condition — the classic nondeterministic
	// argmin/argmax feeding an eviction decision.
	if keyObj != nil && insideIf(rs, stmt.Pos()) && rhs != nil && p.mentionsObj(rhs, keyObj) {
		return []Finding{p.finding(id, stmt.Pos(),
			"conditionally selecting a map key while ranging makes the decision depend on iteration order; iterate sorted keys or break ties explicitly")}
	}
	return nil
}

// sortedInFunc reports whether decl contains a call into sort or
// slices that mentions obj (e.g. sort.Slice(xs, ...), slices.Sort(xs),
// sort.Sort(sort.Reverse(sort.IntSlice(xs)))).
func (p *Package) sortedInFunc(decl *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg := p.calleePkg(call)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if p.mentionsObj(arg, obj) {
				found = true
			}
		}
		return !found
	})
	return found
}

// insideIf reports whether pos falls inside an if statement nested in
// the range body.
func insideIf(rs *ast.RangeStmt, pos token.Pos) bool {
	inside := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if inside {
			return false
		}
		if ifs, ok := n.(*ast.IfStmt); ok && ifs.Body.Pos() <= pos && pos < ifs.Body.End() {
			inside = true
			return false
		}
		return true
	})
	return inside
}
