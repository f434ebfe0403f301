package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// poolFile is the one file in the deterministic packages allowed to
// launch goroutines: nn.Trainer's background fit loop.
const poolFile = "internal/nn/pool.go"

// ruleGoroutineOutsidePool flags every `go` statement in internal/nn
// and internal/core outside poolFile. Those packages promise byte-
// identical replays (DESIGN.md "Determinism & where fits run"), and
// that promise is only auditable while the one concurrent thing on the
// training and eviction paths is nn.Trainer, which runs a whole fit on
// its own goroutine and hands back the result. Sites with a reason to
// fork directly carry a //lint:allow pragma.
func ruleGoroutineOutsidePool() Rule {
	const id = "goroutine-outside-pool"
	return Rule{
		ID:  id,
		Doc: "internal/nn and internal/core launch goroutines only through nn.Trainer",
		Check: func(p *Package) []Finding {
			var out []Finding
			for _, f := range p.Files {
				rel := p.relFile(f)
				if !underDirs(rel, "internal/nn", "internal/core") || rel == poolFile {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if gs, ok := n.(*ast.GoStmt); ok {
						out = append(out, p.finding(id, gs.Pos(),
							"goroutine launched outside nn.Trainer; run background work as a Trainer job"))
					}
					return true
				})
			}
			return out
		},
	}
}

// blockingIONames are method names that can block on a connection or
// on a bufio wrapper around one.
var blockingIONames = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Scan": true, "ReadString": true, "ReadBytes": true, "ReadSlice": true,
	"ReadLine": true, "ReadRune": true, "ReadByte": true,
	"WriteString": true, "WriteByte": true, "WriteRune": true, "Flush": true,
}

// blocksOnConn reports whether sel's receiver is a net connection type
// or a bufio wrapper — the I/O types whose blocking calls the
// deadline-on-conn rule covers.
func (p *Package) blocksOnConn(sel *ast.SelectorExpr) bool {
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "net":
		return strings.Contains(obj.Name(), "Conn")
	case "bufio":
		return true
	}
	return false
}

// ruleDeadlineOnConn enforces the server's lifecycle invariant: every
// function in internal/server or internal/cluster that does blocking
// I/O on a net.Conn (directly or through a bufio wrapper) must arm a
// deadline in the same function — a call to SetDeadline/SetReadDeadline/
// SetWriteDeadline or to a helper whose name mentions "deadline".
// Without a deadline, one slow-loris peer parks a goroutine forever
// and defeats the graceful drain bound (DESIGN.md "Operational
// hardening & observability").
func ruleDeadlineOnConn() Rule {
	const id = "deadline-on-conn"
	return Rule{
		ID:  id,
		Doc: "blocking conn/bufio I/O in internal/server or internal/cluster must arm a deadline in the same function",
		Check: func(p *Package) []Finding {
			var out []Finding
			p.eachFunc(func(file *ast.File, decl *ast.FuncDecl) {
				if !underDirs(p.relFile(file), "internal/server", "internal/cluster") {
					return
				}
				firstBlocking := token.NoPos
				hasDeadline := false
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					name := sel.Sel.Name
					if strings.Contains(strings.ToLower(name), "deadline") {
						hasDeadline = true
						return true
					}
					if blockingIONames[name] && p.blocksOnConn(sel) && firstBlocking == token.NoPos {
						firstBlocking = call.Pos()
					}
					return true
				})
				if firstBlocking != token.NoPos && !hasDeadline {
					out = append(out, p.finding(id, firstBlocking,
						"%s does blocking connection I/O without arming a deadline; call Set(Read|Write)Deadline or a *Deadline helper first", decl.Name.Name))
				}
			})
			return out
		},
	}
}
