package lint

import (
	"bytes"
	"go/token"
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
	n := g.NodeByName("internal/cgiface.lookup")
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
	even := g.NodeByName("internal/cgrec.even")
	odd := g.NodeByName("internal/cgrec.odd")
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
	inv := g.NodeByName("internal/cgmv.invoke")
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

func TestCallGraphEffectsAndLocks(t *testing.T) {
	g := graphFixture(t, "internal/cgeff/cgeff.go", `package cgeff
import (
	"os"
	"sync"
	"time"
)
type S struct{ mu sync.Mutex }
func (s *S) f(m map[int]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = make([]int, 4)
	for range m {
	}
	_ = time.Now()
	_ = os.Remove("x")
}
`)
	n := g.NodeByName("internal/cgeff.(*S).f")
	if n == nil {
		t.Fatal("node missing")
	}
	kinds := make(map[effectKind]bool)
	for _, e := range n.Effects {
		kinds[e.Kind] = true
	}
	for _, k := range []effectKind{effAlloc, effMapRange, effClock, effIO} {
		if !kinds[k] {
			t.Fatalf("effect %v not recorded; have %+v", k, n.Effects)
		}
	}
	if len(n.Locks) != 1 {
		t.Fatalf("want 1 lock site, got %+v", n.Locks)
	}
	ls := n.Locks[0]
	if ls.Class != "fixture/internal/cgeff.S.mu" {
		t.Fatalf("lock class = %q", ls.Class)
	}
	// The Unlock is deferred, so the held region extends to body end.
	if ls.End != n.body().End() {
		t.Fatalf("deferred unlock should hold to body end; got End=%v body=%v", ls.End, n.body().End())
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
			name: "hot-path alloc through a helper is flagged",
			src: `package fix
//lint:hotpath fixture entry point
func Entry() { helper() }
func helper() { _ = make([]int, 8) }
`,
			want: []string{"4:[hot-path-purity]"},
		},
		{
			name: "hot-path map range and clock are flagged",
			src: `package fix
import "time"
//lint:hotpath fixture entry point
func Entry(m map[int]int) int64 {
	for range m {
	}
	return sub()
}
func sub() int64 { return time.Now().UnixNano() }
`,
			// map range at 5, wall-clock (intra) + hot-path clock at 9.
			want: []string{"5:[hot-path-purity]", "9:[hot-path-purity]", "9:[wall-clock]"},
		},
		{
			name: "the closure stops at a coldpath interface, not at any other",
			src: `package fix
//lint:coldpath fixture seam: what is behind it has its own budget
type Seam interface{ Serve() }
type Plain interface{ Work() }
type impl struct{}
func (impl) Serve() { _ = make([]int, 8) }
func (impl) Work()  { _ = make([]int, 8) }
//lint:hotpath fixture entry point
func Entry(s Seam, p Plain) { s.Serve(); p.Work() }
`,
			want: []string{"7:[hot-path-purity]"},
		},
		{
			name: "pure hot path is clean",
			src: `package fix
//lint:hotpath fixture entry point
func Entry(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
`,
		},
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
			name: "clock flowing into a victim decision is flagged",
			src: `package fix
import "time"
type P struct{}
func (P) Victim() (int, bool) {
	t := time.Now().UnixNano()
	if t%2 == 0 {
		return 1, true
	}
	return 0, false
}
`,
			// wall-clock (intra) at the source, determinism-taint at the decl.
			want: []string{"4:[determinism-taint]", "5:[wall-clock]"},
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
			// Only the intra wall-clock finding at the time.Now call: the
			// timestamp goes into a sink argument, which does not flow
			// back into the decision.
			want: []string{"7:[wall-clock]"},
		},
		{
			name: "global rand laundered through helpers taints the decision",
			src: `package fix
import "math/rand"
func noise() float64 { return rand.Float64() }
func jitter() float64 { return noise() }
type P struct{}
func (P) Victim() (int, bool) { return int(jitter()), true }
`,
			want: []string{"3:[rand-global]", "6:[determinism-taint]"},
		},
		{
			name: "conditional map selection taints the decision",
			src: `package fix
type P struct{ m map[int]int }
func (p P) Victim() (int, bool) {
	best := -1
	for k, v := range p.m {
		if v > 0 {
			best = k
		}
	}
	return best, best >= 0
}
`,
			want: []string{"3:[determinism-taint]", "7:[map-iter-order]"},
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
//lint:allow no-panic nothing here panics anymore
func quiet() {}
func loud(n int) {
	if n < 0 {
		panic("negative") //lint:allow no-panic fixture wants this panic
	}
}
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

// ---- test-file rule filtering (-tests) ----

func TestTestFileRuleFiltering(t *testing.T) {
	// A _test.go file: the concurrency rules apply, the hygiene rules
	// (no-panic here) do not.
	got := lintFixture(t, "internal/policy/fix/fix_test.go", `package fix
func f(xs []int, sink func(int)) {
	for _, x := range xs {
		go func() { sink(x) }()
	}
	panic("test helper")
}
`)
	want := []string{"4:[go-loop-capture]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("test-file findings = %v, want %v", got, want)
	}
}

// ---- baseline machinery ----

func finding(file string, line int, rule, msg string) Finding {
	return Finding{Pos: token.Position{Filename: file, Line: line}, Rule: rule, Msg: msg}
}

func TestBaselineApply(t *testing.T) {
	old := []Finding{
		finding("a.go", 3, "r1", "m1"),
		finding("a.go", 9, "r1", "m1"), // same key, different line
		finding("b.go", 1, "r2", "m2"),
	}
	b := NewBaseline(old)
	if len(b.Entries) != 2 || b.Entries[0].Count != 2 || b.Entries[1].Count != 1 {
		t.Fatalf("bad aggregation: %+v", b.Entries)
	}

	// Identical findings (lines shifted): fully absorbed, no drift.
	shifted := []Finding{
		finding("a.go", 30, "r1", "m1"),
		finding("a.go", 90, "r1", "m1"),
		finding("b.go", 10, "r2", "m2"),
	}
	news, drift := b.Apply(shifted)
	if len(news) != 0 || len(drift) != 0 {
		t.Fatalf("shifted lines should be absorbed: news=%v drift=%v", news, drift)
	}

	// A third a.go/r1/m1 instance is NEW; the fixed b.go entry drifts.
	changed := []Finding{
		finding("a.go", 3, "r1", "m1"),
		finding("a.go", 9, "r1", "m1"),
		finding("a.go", 12, "r1", "m1"),
	}
	news, drift = b.Apply(changed)
	if len(news) != 1 || news[0].Pos.Line != 12 {
		t.Fatalf("want the extra instance as new, got %v", news)
	}
	if len(drift) != 1 || drift[0].File != "b.go" || drift[0].Count != 1 {
		t.Fatalf("want b.go drift, got %v", drift)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	b := NewBaseline([]Finding{
		finding("x.go", 1, "r", "m"),
		finding("x.go", 2, "r", "m"),
	})
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Entries, b.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", loaded.Entries, b.Entries)
	}
	// Regenerating from the loaded state is byte-identical.
	if err := loaded.Write(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("baseline serialization is not byte-stable")
	}
	if _, err := LoadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("want error for missing baseline")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("want error for malformed baseline")
	}
}

func TestJSONReportStable(t *testing.T) {
	r := NewJSONReport(nil, nil, 3)
	a, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("report marshal is not byte-stable")
	}
	if !bytes.Contains(a, []byte(`"findings": []`)) {
		t.Fatalf("empty findings must render as [], got %s", a)
	}
}

// ---- loader error paths and -tests loading ----

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
		if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].TypeErrs) == 0 {
			t.Fatalf("want one package with recorded type errors, got %+v", mod.Pkgs)
		}
		// Rules still run best-effort over the partially checked package.
		_ = Run(mod.Pkgs, DefaultRules())
	})
}

func TestPragmaAtFileBoundaries(t *testing.T) {
	// A pragma on line 1 (before the package clause) must not crash the
	// line-1 lookup and must suppress a finding on the next line; a
	// malformed pragma on the last line is still reported.
	got := lintFixture(t, "internal/policy/fix/fix.go", `//lint:allow no-panic boundary fixture
package fix
func f() { panic("x") }
//lint:allow nosuchrule trailing
`)
	// The line-1 pragma covers lines 1-2 only, so the panic at line 3
	// is NOT suppressed; the unknown-rule pragma at line 4 reports.
	want := []string{"3:[no-panic]", "4:[pragma-syntax]"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary findings = %v, want %v", got, want)
	}
}

func TestLoadModuleWithTests(t *testing.T) {
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
	write("go.mod", "module example.com/tt\n")
	write("lib/lib.go", `package lib
func answer() int { return 42 }
func Answer() int { return answer() }
`)
	// In-package test: sees the unexported identifier.
	write("lib/internal_test.go", `package lib
import "testing"
func TestAnswer(t *testing.T) {
	if answer() != 42 {
		t.Fatal("nope")
	}
}
`)
	// External test package: imports the library.
	write("lib/external_test.go", `package lib_test
import (
	"testing"

	"example.com/tt/lib"
)
func TestExported(t *testing.T) {
	if lib.Answer() != 42 {
		t.Fatal("nope")
	}
}
`)

	// Without Tests: the test files are invisible.
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 1 || len(mod.Pkgs[0].Files) != 1 {
		t.Fatalf("default load should see 1 package with 1 file, got %+v", mod.Pkgs)
	}

	mod, err = LoadModuleOpts(dir, LoadOptions{Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 2 {
		t.Fatalf("want lib + external test package, got %d", len(mod.Pkgs))
	}
	lib, ext := mod.Pkgs[0], mod.Pkgs[1]
	if lib.ImportPath != "example.com/tt/lib" || len(lib.Files) != 2 {
		t.Fatalf("lib package should include its in-package test file: %+v", lib)
	}
	if ext.ImportPath != "example.com/tt/lib_test" || ext.Name != "lib_test" {
		t.Fatalf("external test package mis-loaded: %+v", ext)
	}
	for _, p := range mod.Pkgs {
		if len(p.TypeErrs) > 0 {
			t.Fatalf("%s: type errors: %v", p.ImportPath, p.TypeErrs)
		}
	}
}
