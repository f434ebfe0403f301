package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ---- call-graph construction ----

// graphFixture builds the call graph over one fixture file.
func graphFixture(t *testing.T, relfile, src string) *Graph {
	t.Helper()
	return BuildGraph([]*Package{loadFixture(t, relfile, src)})
}

// nodeByName returns the node with the given display name, or nil.
func nodeByName(g *Graph, name string) *FuncNode {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// edgeNames returns the deduplicated callee names of a node's edges,
// in edge order.
func edgeNames(n *FuncNode) []string {
	var out []string
	seen := make(map[string]bool)
	for _, e := range n.Calls {
		if !seen[e.To.Name] {
			seen[e.To.Name] = true
			out = append(out, e.To.Name)
		}
	}
	return out
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := graphFixture(t, "internal/cgiface/cgiface.go", `package cgiface
type Store interface{ Get(k int) int }
type A struct{}
func (A) Get(k int) int { return k }
type B struct{ m []int }
func (b *B) Get(k int) int { return b.m[k] }
func lookup(s Store, k int) int { return s.Get(k) }
`)
	n := nodeByName(g, "internal/cgiface.lookup")
	if n == nil {
		t.Fatal("lookup node missing")
	}
	got := edgeNames(n)
	want := []string{"internal/cgiface.(A).Get", "internal/cgiface.(*B).Get"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interface dispatch edges = %v, want %v", got, want)
	}
	for _, e := range n.Calls {
		if e.Kind != "interface" {
			t.Fatalf("edge kind = %q, want interface", e.Kind)
		}
	}
}

func TestCallGraphMutualRecursion(t *testing.T) {
	g := graphFixture(t, "internal/cgrec/cgrec.go", `package cgrec
func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}
func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}
`)
	even := nodeByName(g, "internal/cgrec.even")
	odd := nodeByName(g, "internal/cgrec.odd")
	if even == nil || odd == nil {
		t.Fatal("nodes missing")
	}
	if got := edgeNames(even); !reflect.DeepEqual(got, []string{"internal/cgrec.odd"}) {
		t.Fatalf("even edges = %v", got)
	}
	if got := edgeNames(odd); !reflect.DeepEqual(got, []string{"internal/cgrec.even"}) {
		t.Fatalf("odd edges = %v", got)
	}
}

func TestCallGraphMethodValueAndFuncField(t *testing.T) {
	g := graphFixture(t, "internal/cgmv/cgmv.go", `package cgmv
type runner struct{ task func() }
func (r *runner) work() {}
func newRunner() *runner {
	r := &runner{}
	r.task = r.work
	return r
}
func invoke(r *runner) { r.task() }
`)
	inv := nodeByName(g, "internal/cgmv.invoke")
	if inv == nil {
		t.Fatal("invoke node missing")
	}
	got := edgeNames(inv)
	if !reflect.DeepEqual(got, []string{"internal/cgmv.(*runner).work"}) {
		t.Fatalf("method-value edges = %v", got)
	}
	if inv.Calls[0].Kind != "funcval" {
		t.Fatalf("edge kind = %q, want funcval", inv.Calls[0].Kind)
	}
}

func TestCallGraphLockSites(t *testing.T) {
	g := graphFixture(t, "internal/cglock/cglock.go", `package cglock
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) f() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`)
	n := nodeByName(g, "internal/cglock.(*S).f")
	if n == nil {
		t.Fatal("node missing")
	}
	if len(n.Locks) != 1 {
		t.Fatalf("want 1 lock site, got %+v", n.Locks)
	}
	ls := n.Locks[0]
	if ls.Class != "fixture/internal/cglock.S.mu" {
		t.Fatalf("lock class = %q", ls.Class)
	}
	// The Unlock is deferred, so the held region extends to body end.
	if ls.End != n.body().End() {
		t.Fatalf("deferred unlock should hold to body end; got End=%v body=%v", ls.End, n.body().End())
	}
}

// TestCallGraphAssemblyLeaf pins how a body-less declaration (a
// function written in assembly) enters the graph: as a node with no
// calls and no locks, reached by a static edge, which the lock-cycle
// search walks through without a finding.
func TestCallGraphAssemblyLeaf(t *testing.T) {
	src := `package cgasm
import "sync"
type S struct{ mu sync.Mutex }
func dot(x, y []float64) float64
func (s *S) norm(x []float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return dot(x, x)
}
`
	g := graphFixture(t, "internal/cgasm/cgasm.go", src)
	leaf := nodeByName(g, "internal/cgasm.dot")
	if leaf == nil {
		t.Fatal("no node for the assembly declaration")
	}
	if leaf.body() != nil || len(leaf.Calls) != 0 || len(leaf.Locks) != 0 {
		t.Fatalf("assembly node is not a bare leaf: calls %v, locks %v", leaf.Calls, leaf.Locks)
	}
	caller := nodeByName(g, "internal/cgasm.(*S).norm")
	if caller == nil || len(caller.Calls) != 1 || caller.Calls[0].To != leaf || caller.Calls[0].Kind != "static" {
		t.Fatalf("caller should have one static edge to the leaf, got %+v", caller)
	}
	if got := lintFixture(t, "internal/cgasm/cgasm.go", src); len(got) != 0 {
		t.Fatalf("want no findings through an assembly leaf, got %v", got)
	}
}

func TestCallGraphDeterministic(t *testing.T) {
	src := `package cgdet
type I interface{ M() }
type X struct{}
func (X) M() {}
type Y struct{}
func (Y) M() {}
func f(i I) { i.M() }
func g() { f(X{}) }
`
	shape := func(g *Graph) []string {
		var out []string
		for _, n := range g.Nodes {
			row := n.Name + ":"
			for _, e := range n.Calls {
				row += e.To.Name + ","
			}
			out = append(out, row)
		}
		return out
	}
	a := shape(graphFixture(t, "internal/cgdet/cgdet.go", src))
	b := shape(graphFixture(t, "internal/cgdet/cgdet.go", src))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("graph shape differs across builds:\n%v\n%v", a, b)
	}
}

// ---- interprocedural rules on seeded violations ----

func TestInterprocRules(t *testing.T) {
	tests := []struct {
		name    string
		relfile string
		src     string
		want    []string
	}{
		{
			name: "lock re-entry through a stored observer is flagged",
			src: `package fix
import "sync"
type C struct {
	mu  sync.Mutex
	obs func()
}
func (c *C) SetObs(fn func()) { c.obs = fn }
func (c *C) Evict() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.obs != nil {
		c.obs()
	}
}
func (c *C) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return 0
}
func wire(c *C) { c.SetObs(func() { _ = c.Len() }) }
`,
			want: []string{"12:[lock-cycle]"},
		},
		{
			name: "observer that stays off the lock is clean",
			src: `package fix
import "sync"
type C struct {
	mu  sync.Mutex
	obs func()
	n   int
}
func (c *C) SetObs(fn func()) { c.obs = fn }
func (c *C) Evict() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.obs != nil {
		c.obs()
	}
}
func (c *C) lenLocked() int { return c.n }
func wire(c *C) { c.SetObs(func() { _ = c.lenLocked() }) }
`,
		},
		{
			name: "direct re-lock in one function is flagged",
			src: `package fix
import "sync"
var mu sync.Mutex
func f() {
	mu.Lock()
	defer mu.Unlock()
	mu.Lock()
}
`,
			want: []string{"7:[lock-cycle]"},
		},
		{
			name: "sequential lock-unlock pairs are clean",
			src: `package fix
import "sync"
var mu sync.Mutex
func f() {
	mu.Lock()
	mu.Unlock()
	mu.Lock()
	mu.Unlock()
}
`,
		},
		{
			name: "clock used only for metrics does not taint the decision",
			src: `package fix
import "time"
type res struct{ total float64 }
func (r *res) add(v float64) { r.total += v }
type P struct{ r *res }
func (p P) Victim() (int, bool) {
	start := time.Now()
	k, ok := pick()
	p.r.add(float64(time.Since(start)))
	return k, ok
}
func pick() (int, bool) { return 7, true }
`,
			// The wall-clock rule flags both clock reads at their line;
			// whether a clock value reaches a decision is the
			// determinism suite's to referee (verify.sh determinism).
			want: []string{"7:[wall-clock]", "9:[wall-clock]"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			relfile := tt.relfile
			if relfile == "" {
				relfile = "internal/policy/fix/fix.go"
			}
			got := lintFixture(t, relfile, tt.src)
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("findings mismatch:\n got: %v\nwant: %v", got, tt.want)
			}
		})
	}
}

// ---- stale pragmas ----

func TestStalePragmas(t *testing.T) {
	p := loadFixture(t, "internal/policy/fix/fix.go", `package fix
//lint:allow float-equal nothing here compares floats anymore
func quiet() {}
func unset(a float64) bool {
	return a == 0 //lint:allow float-equal fixture wants this comparison
}
//lint:allow hot-path-purity names no rule: an inert comment, never stale
func inert() {}
`)
	// Default run: stale pragmas are not reported.
	if got := Run([]*Package{p}, DefaultRules()); len(got) != 0 {
		t.Fatalf("default run should be clean, got %v", got)
	}
	got := RunOpts([]*Package{p}, DefaultRules(), Options{StalePragmas: true})
	if len(got) != 1 || got[0].Rule != "pragma-stale" || got[0].Pos.Line != 2 {
		t.Fatalf("want one pragma-stale at line 2, got %v", got)
	}
}

// ---- loader error paths ----

func TestLoadModuleErrors(t *testing.T) {
	t.Run("missing go.mod", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := LoadModule(dir); err == nil {
			t.Fatal("want error for missing go.mod")
		}
	})
	t.Run("no module line", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("// empty\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModule(dir); err == nil {
			t.Fatal("want error for go.mod without module line")
		}
	})
	t.Run("type errors are tolerated and recorded", func(t *testing.T) {
		dir := t.TempDir()
		write := func(rel, src string) {
			t.Helper()
			full := filepath.Join(dir, rel)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("go.mod", "module example.com/broken\n")
		write("bad.go", "package broken\nfunc f() int { return undefinedIdent }\n")
		mod, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The loader records rather than fails, so ravenlint can print
		// every diagnostic before exiting 2 (cmd/ravenlint TestExitStatus).
		if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].TypeErrs) == 0 {
			t.Fatalf("want one package with recorded type errors, got %+v", mod.Pkgs)
		}
	})
}

// TestLoadModuleHonoursBuildConstraints loads a package that declares
// one function per architecture, as internal/nn's kernels do: only the
// host's file is type-checked, so nothing is declared twice.
func TestLoadModuleHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":     "module example.com/arch\n",
		"k_amd64.go": "package arch\nfunc kern() int { return 1 }\n",
		"k_other.go": "//go:build !amd64\n\npackage arch\nfunc kern() int { return 2 }\n",
		"use.go":     "package arch\nfunc Use() int { return kern() }\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].TypeErrs) != 0 {
		t.Fatalf("want one clean package, got %+v", mod.Pkgs)
	}
}

func TestPragmaAtFileBoundaries(t *testing.T) {
	// A pragma on line 1 (before the package clause) must not crash the
	// line-1 lookup and must suppress a finding on the next line; a
	// malformed pragma on the last line is still reported.
	got := lintFixture(t, "internal/policy/fix/fix.go", `//lint:allow float-equal boundary fixture
package fix
func f(a float64) bool { return a == 0 }
//lint:allow float-equal
`)
	// The line-1 pragma covers lines 1-2 only, so the comparison at
	// line 3 is NOT suppressed; the reasonless pragma at line 4 reports.
	want := []string{"3:[float-equal]", "4:[pragma-syntax]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary findings = %v, want %v", got, want)
	}
}
