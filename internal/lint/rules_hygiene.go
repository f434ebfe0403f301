package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ruleFloatEqual flags == and != between floating-point operands.
// Policy priority comparisons hinge on these, and exact float equality
// silently depends on evaluation order and FMA contraction; compare
// with an epsilon, compare the inputs instead, or pragma-annotate an
// intentional exact-bit guard.
func ruleFloatEqual() Rule {
	const id = "float-equal"
	return Rule{
		ID:  id,
		Doc: "no float ==/!= (priority ties, sentinel checks); use epsilons or integer state",
		Check: func(p *Package) []Finding {
			var out []Finding
			isFloat := func(e ast.Expr) bool {
				tv, ok := p.Info.Types[e]
				if !ok || tv.Type == nil {
					return false
				}
				b, ok := tv.Type.Underlying().(*types.Basic)
				return ok && b.Info()&types.IsFloat != 0
			}
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					be, ok := n.(*ast.BinaryExpr)
					if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
						return true
					}
					xt, yt := p.Info.Types[be.X], p.Info.Types[be.Y]
					if xt.Value != nil && yt.Value != nil {
						return true // constant expression, compile-time
					}
					if isFloat(be.X) && isFloat(be.Y) {
						out = append(out, p.finding(id, be.OpPos,
							"exact float %s comparison; use an epsilon or restructure, or pragma an intentional bit-exact guard", be.Op))
					}
					return true
				})
			}
			return out
		},
	}
}

// errStrictPkgs are the stdlib packages whose error returns must never
// be silently dropped: losing an io/os/encoding error corrupts traces,
// model checkpoints, and experiment outputs without any signal.
var errStrictPkgs = map[string]bool{
	"io":              true,
	"os":              true,
	"bufio":           true,
	"encoding/json":   true,
	"encoding/gob":    true,
	"encoding/csv":    true,
	"encoding/binary": true,
	"encoding/xml":    true,
	"compress/gzip":   true,
	"compress/flate":  true,
	"archive/tar":     true,
	"archive/zip":     true,
}

// ruleUncheckedError flags statement-position calls into io/os/
// encoding-family packages whose error result is dropped on the
// floor. Explicit discards (`_ = w.Flush()`) and deferred cleanup
// (`defer f.Close()`) are accepted: both show intent.
func ruleUncheckedError() Rule {
	const id = "unchecked-error"
	return Rule{
		ID:  id,
		Doc: "no silently ignored error returns from io/os/encoding calls",
		Check: func(p *Package) []Finding {
			var out []Finding
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					stmt, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := stmt.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := p.funcObj(call)
					if fn == nil || fn.Pkg() == nil || !errStrictPkgs[fn.Pkg().Path()] {
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Results().Len() == 0 {
						return true
					}
					last := sig.Results().At(sig.Results().Len() - 1).Type()
					if last.String() != "error" {
						return true
					}
					out = append(out, p.finding(id, call.Pos(),
						"%s.%s returns an error that is silently dropped; handle it or discard explicitly with _ =", fn.Pkg().Path(), fn.Name()))
					return true
				})
			}
			return out
		},
	}
}
