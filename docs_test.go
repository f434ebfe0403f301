package raven_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"raven/internal/experiments"
)

// TestDesignInventoryPathsExist: every backticked internal/, cmd/ or
// examples/ path in DESIGN.md's "System inventory" table names
// something on disk. A glob must match at least one path.
func TestDesignInventoryPathsExist(t *testing.T) {
	section := designSection(t, "System inventory")
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

// designSection returns the body of DESIGN.md's "## heading" section.
func designSection(t *testing.T, heading string) string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf(`DESIGN.md has no "## %s" section`, heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	return section
}

// TestDesignExperimentIndex: DESIGN.md's "Per-experiment index" has a
// row for every experiments.All ID, every `experiments.X` harness
// target it names is a Runner method, and every benchmark it names is
// declared in some _test.go.
func TestDesignExperimentIndex(t *testing.T) {
	section := designSection(t, "Per-experiment index")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && cells[0] == "" {
			rows[strings.TrimSpace(cells[1])] = true
		}
	}
	for _, id := range experiments.All {
		if !rows[id] {
			t.Errorf("no index row for experiment %s", id)
		}
	}

	runner := reflect.TypeOf(&experiments.Runner{})
	targets := regexp.MustCompile("`experiments\\.(\\w+)`").FindAllStringSubmatch(section, -1)
	if len(targets) == 0 {
		t.Fatal("no harness targets found: the table's format changed")
	}
	for _, m := range targets {
		if _, ok := runner.MethodByName(m[1]); !ok {
			t.Errorf("harness target experiments.%s is not a Runner method", m[1])
		}
	}

	declared := map[string]bool{}
	declRE := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range declRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("`(Benchmark\\w*)").FindAllStringSubmatch(section, -1) {
		if !declared[m[1]] {
			t.Errorf("the index names %s, which no _test.go declares", m[1])
		}
	}
}

// cmdFlags returns every flag a cmd/*/main.go defines, mapped to the
// binaries that define it. The definitions are read from the source,
// without a build.
func cmdFlags(t *testing.T) map[string][]string {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no cmd/*/main.go: %v", err)
	}
	defined := map[string][]string{}
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
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
					defined[name] = append(defined[name], cmd)
				}
			}
			return true
		})
	}
	return defined
}

// readmeFlags returns every -flag README.md names.
func readmeFlags(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile("(?m)(?:^|[\\s`(|])-([a-z][a-z0-9-]*)")
	named := map[string]bool{}
	for _, m := range flagRE.FindAllStringSubmatch(string(readme), -1) {
		named[m[1]] = true
	}
	if len(named) == 0 {
		t.Fatal("README.md names no flags: the pattern no longer matches")
	}
	return named
}

// TestReadmeFlagsExist: every -flag README.md names is defined by a
// flag.* call in some cmd/*/main.go, or is one of go test's own flags,
// so a deleted flag cannot linger in the docs.
func TestReadmeFlagsExist(t *testing.T) {
	defined := cmdFlags(t)
	for _, name := range []string{"bench", "benchmem", "benchtime", "count", "cover", "cpu", "fuzz", "fuzztime", "json", "list", "race", "run", "short", "timeout", "v"} {
		defined[name] = append(defined[name], "go test")
	}
	for name := range readmeFlags(t) {
		if len(defined[name]) == 0 {
			t.Errorf("README.md names -%s, which no cmd/*/main.go defines", name)
		}
	}
}

// TestReadmeListsEveryFlag: every flag a cmd/*/main.go defines appears
// in README.md, so a new flag cannot go undocumented.
func TestReadmeListsEveryFlag(t *testing.T) {
	named, defined := readmeFlags(t), cmdFlags(t)
	names := make([]string, 0, len(defined))
	for name := range defined {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !named[name] {
			t.Errorf("README.md does not name -%s (defined by %s)", name, strings.Join(defined[name], ", "))
		}
	}
}
