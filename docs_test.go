package raven_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignInventoryPathsExist: every backticked internal/, cmd/ or
// examples/ path in DESIGN.md's "System inventory" table names
// something on disk. A glob must match at least one path.
func TestDesignInventoryPathsExist(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## System inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## System inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	pathRE := regexp.MustCompile("`((?:internal|cmd|examples)/[^`]*)`")
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range pathRE.FindAllStringSubmatch(line, -1) {
			p := m[1]
			checked++
			if strings.ContainsAny(p, "*?[") {
				if hits, _ := filepath.Glob(p); len(hits) == 0 {
					t.Errorf("inventory glob %s matches nothing", p)
				}
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("inventory path %s: %v", p, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no inventory paths found: the table's format changed")
	}
}

// TestReadmeFlagsExist: every -flag README.md names is defined by a
// flag.* call in some cmd/*/main.go, or is one of go test's own flags,
// so a deleted flag cannot linger in the docs. The definitions are read
// from the source, without a build.
func TestReadmeFlagsExist(t *testing.T) {
	defined := map[string]bool{}
	for _, name := range []string{"bench", "benchmem", "benchtime", "count", "cover", "cpu", "fuzz", "fuzztime", "json", "list", "race", "run", "short", "timeout", "v"} {
		defined[name] = true // go test's
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// flag.String("name", ...), fs.Int("name", ...): the name is
		// the first argument, or the second of a *Var call.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			at := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				at = 1
			}
			switch strings.TrimSuffix(sel.Sel.Name, "Var") {
			case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration", "":
			default:
				return true
			}
			if len(call.Args) <= at {
				return true
			}
			if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[name] = true
				}
			}
			return true
		})
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile("(?m)(?:^|[\\s`(|])-([a-z][a-z0-9-]*)")
	named := 0
	for _, m := range flagRE.FindAllStringSubmatch(string(readme), -1) {
		named++
		if !defined[m[1]] {
			t.Errorf("README.md names -%s, which no cmd/*/main.go defines", m[1])
		}
	}
	if named == 0 {
		t.Fatal("README.md names no flags: the pattern no longer matches")
	}
}
