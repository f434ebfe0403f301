package lint

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Run executes rules over pkgs with default options.
func Run(pkgs []*Package, rules []Rule) []Finding {
	return RunOpts(pkgs, rules, Options{})
}

// The fixture module root; it never exists on disk, positions are
// computed purely from the fileset.
const fixtureRoot = "/ravenlint-fixture"

var testStd struct {
	once sync.Once
	fset *token.FileSet
	imp  types.Importer
	mu   sync.Mutex
}

// loadFixture type-checks one synthetic source file as its own
// package, placed at relfile inside the fixture module.
func loadFixture(t *testing.T, relfile, src string) *Package {
	t.Helper()
	testStd.once.Do(func() {
		testStd.fset = token.NewFileSet()
		testStd.imp = importer.ForCompiler(testStd.fset, "source", nil)
	})
	testStd.mu.Lock()
	defer testStd.mu.Unlock()
	f, err := parser.ParseFile(testStd.fset, filepath.Join(fixtureRoot, relfile), src,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg := &Package{
		ImportPath: "fixture/" + path.Dir(relfile),
		RelDir:     path.Dir(relfile),
		Name:       f.Name.Name,
		ModuleRoot: fixtureRoot,
		Fset:       testStd.fset,
	}
	pkg.Files = append(pkg.Files, f)
	pkg.check(testStd.imp, nil)
	for _, e := range pkg.TypeErrs {
		t.Fatalf("fixture does not type-check: %v", e)
	}
	return pkg
}

// lintFixture runs the full default rule set (with pragma handling)
// over one fixture file and returns each finding as "line:[rule-id]".
func lintFixture(t *testing.T, relfile, src string) []string {
	t.Helper()
	p := loadFixture(t, relfile, src)
	var out []string
	for _, f := range Run([]*Package{p}, DefaultRules()) {
		out = append(out, fmt.Sprintf("%d:[%s]", f.Pos.Line, f.Rule))
	}
	return out
}

func TestRules(t *testing.T) {
	tests := []struct {
		name    string
		relfile string // defaults to internal/policy/fix/fix.go
		src     string
		want    []string // "line:[rule-id]", exact set in order
	}{
		// ---- rand-global ----
		{
			name: "global rand functions are flagged",
			src: `package fix
import "math/rand"
func f() int { return rand.Intn(5) }
func g() float64 { return rand.Float64() }
`,
			want: []string{"3:[rand-global]", "4:[rand-global]"},
		},
		{
			name: "seeded rand constructor is allowed",
			src: `package fix
import "math/rand"
func f() int { return rand.New(rand.NewSource(42)).Intn(5) }
`,
		},
		{
			name: "time-seeded rand source is flagged",
			src: `package fix
import (
	"math/rand"
	"time"
)
func f() *rand.Rand { return rand.New(rand.NewSource(time.Now().UnixNano())) }
`,
			want: []string{"6:[rand-global]", "6:[rand-global]", "6:[wall-clock]"},
		},
		{
			name:    "the stats RNG wrapper file is exempt",
			relfile: "internal/stats/rng.go",
			src: `package stats
import "math/rand"
func f() int { return rand.Intn(5) }
`,
		},
		{
			name: "pragma suppresses rand-global",
			src: `package fix
import "math/rand"
func f() int {
	return rand.Intn(5) //lint:allow rand-global fixture demonstrates suppression
}
`,
		},

		// ---- wall-clock ----
		{
			name: "time.Now in policy code is flagged",
			src: `package fix
import "time"
func f() int64 { return time.Now().UnixNano() }
`,
			want: []string{"3:[wall-clock]"},
		},
		{
			name:    "time.Since and time.Until in library code are flagged like time.Now",
			relfile: "internal/core/slo.go",
			src: `package core
import "time"
func spent(t0 time.Time) time.Duration { return time.Since(t0) }
func left(deadline time.Time) time.Duration { return time.Until(deadline) }
func span(t0, t1 time.Time) time.Duration { return t1.Sub(t0) }
`,
			want: []string{"3:[wall-clock]", "4:[wall-clock]"},
		},
		{
			name:    "time.Now in experiments is allowed",
			relfile: "internal/experiments/bench.go",
			src: `package experiments
import "time"
func f() time.Time { return time.Now() }
`,
		},
		{
			name:    "time.Now in package main is allowed",
			relfile: "cmd/tool/main.go",
			src: `package main
import "time"
func main() { _ = time.Now() }
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
		{
			name: "pragma suppresses wall-clock",
			src: `package fix
import "time"
func f() int64 {
	//lint:allow wall-clock fixture demonstrates suppression
	return time.Now().UnixNano()
}
`,
		},

		// ---- map-iter-order ----
		{
			name: "unsorted append from map range is flagged",
			src: `package fix
func f(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
			want: []string{"5:[map-iter-order]"},
		},
		{
			name: "sorted append from map range is allowed",
			src: `package fix
import "sort"
func f(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
`,
		},
		{
			name: "printing inside map range is flagged",
			src: `package fix
import "fmt"
func f(m map[int]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: []string{"5:[map-iter-order]"},
		},
		{
			name: "conditional key selection (eviction victim) is flagged",
			src: `package fix
func victim(m map[uint64]float64) uint64 {
	var best uint64
	lo := 1e300
	for k, pri := range m {
		if pri < lo {
			lo = pri
			best = k
		}
	}
	return best
}
`,
			want: []string{"8:[map-iter-order]"},
		},
		{
			name: "commutative accumulation over a map is allowed",
			src: `package fix
func f(m map[int]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
		},
		{
			name: "pragma suppresses map-iter-order",
			src: `package fix
func f(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k) //lint:allow map-iter-order fixture demonstrates suppression
	}
	return out
}
`,
		},

		// ---- goroutine-outside-pool ----
		{
			name:    "go statement in internal/nn outside the pool file is flagged",
			relfile: "internal/nn/train.go",
			src: `package nn
func work() {}
func f() { go work() }
`,
			want: []string{"3:[goroutine-outside-pool]"},
		},
		{
			name:    "go statement in internal/core is flagged",
			relfile: "internal/core/raven.go",
			src: `package core
func work() {}
func f() { go work() }
`,
			want: []string{"3:[goroutine-outside-pool]"},
		},
		{
			name:    "the pool file itself may launch goroutines",
			relfile: "internal/nn/pool.go",
			src: `package nn
func work() {}
func f() { go work() }
`,
		},
		{
			name:    "go statements outside the deterministic packages are not flagged",
			relfile: "internal/sim/sim.go",
			src: `package sim
func work() {}
func f() { go work() }
`,
		},
		{
			name:    "pragma suppresses goroutine-outside-pool",
			relfile: "internal/core/raven.go",
			src: `package core
func work() {}
func f() {
	go work() //lint:allow goroutine-outside-pool fixture demonstrates suppression
}
`,
		},

		// ---- deadline-on-conn ----
		{
			name:    "blocking conn read without deadline in internal/server is flagged",
			relfile: "internal/server/handler.go",
			src: `package server
import "net"
func f(conn net.Conn) {
	buf := make([]byte, 16)
	conn.Read(buf)
}
`,
			want: []string{"5:[deadline-on-conn]"},
		},
		{
			name:    "deadline armed before the read is allowed",
			relfile: "internal/server/handler.go",
			src: `package server
import (
	"net"
	"time"
)
func f(conn net.Conn) {
	conn.SetReadDeadline(time.Time{})
	buf := make([]byte, 16)
	conn.Read(buf)
}
`,
		},
		{
			name:    "bufio scanner over a conn without deadline is flagged",
			relfile: "internal/server/handler.go",
			src: `package server
import (
	"bufio"
	"net"
)
func f(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
	}
}
`,
			want: []string{"8:[deadline-on-conn]"},
		},
		{
			name:    "a helper whose name mentions deadline satisfies the rule",
			relfile: "internal/server/client_fixture.go",
			src: `package server
import (
	"bufio"
	"net"
	"time"
)
type cl struct {
	conn net.Conn
	r    *bufio.Reader
}
func (c *cl) armDeadline() { c.conn.SetDeadline(time.Time{}) }
func (c *cl) get() (string, error) {
	c.armDeadline()
	return c.r.ReadString('\n')
}
`,
		},
		{
			name:    "blocking conn I/O outside internal/server is not flagged",
			relfile: "internal/trace/netio.go",
			src: `package trace
import "net"
func f(conn net.Conn) {
	buf := make([]byte, 16)
	conn.Read(buf)
}
`,
		},
		{
			name:    "pragma suppresses deadline-on-conn",
			relfile: "internal/server/handler.go",
			src: `package server
import "net"
func f(conn net.Conn) {
	buf := make([]byte, 16)
	conn.Read(buf) //lint:allow deadline-on-conn fixture demonstrates suppression
}
`,
		},

		// ---- float-equal ----
		{
			name: "exact float comparison is flagged",
			src: `package fix
func eq(a, b float64) bool { return a == b }
func ne(a, b float32) bool { return a != b }
`,
			want: []string{"2:[float-equal]", "3:[float-equal]"},
		},
		{
			name: "integer comparison and ordered float comparison are allowed",
			src: `package fix
func f(a, b int) bool { return a == b }
func g(a, b float64) bool { return a < b }
`,
		},
		{
			name: "pragma on the preceding line suppresses",
			src: `package fix
func f(a float64) bool {
	//lint:allow float-equal zero means unset
	return a == 0
}
`,
		},

		// ---- unchecked-error ----
		{
			name: "dropped bufio flush error is flagged",
			src: `package fix
import (
	"bufio"
	"io"
)
func f(w io.Writer) {
	bw := bufio.NewWriter(w)
	bw.Flush()
}
`,
			want: []string{"8:[unchecked-error]"},
		},
		{
			name: "dropped os and encoding errors are flagged",
			src: `package fix
import (
	"encoding/json"
	"os"
)
func f(fp *os.File, enc *json.Encoder) {
	os.Remove("x")
	enc.Encode(42)
	fp.Sync()
}
`,
			want: []string{"7:[unchecked-error]", "8:[unchecked-error]", "9:[unchecked-error]"},
		},
		{
			name: "explicit discard and deferred close are allowed",
			src: `package fix
import (
	"bufio"
	"io"
	"os"
)
func f(w io.Writer, fp *os.File) {
	bw := bufio.NewWriter(w)
	_ = bw.Flush()
	defer fp.Close()
}
`,
		},
		{
			name: "pragma suppresses unchecked-error",
			src: `package fix
import (
	"bufio"
	"io"
)
func f(w io.Writer) {
	bw := bufio.NewWriter(w)
	bw.Flush() //lint:allow unchecked-error fixture demonstrates suppression
}
`,
		},

		// ---- ckpt-atomic-write ----
		{
			name: "direct os.Create of a checkpoint path is flagged",
			src: `package fix
import "os"
func f() error {
	fp, err := os.Create("model.ckpt")
	if err != nil {
		return err
	}
	return fp.Close()
}
`,
			want: []string{"4:[ckpt-atomic-write]"},
		},
		{
			name: "checkpoint path built with filepath.Join is flagged",
			src: `package fix
import (
	"os"
	"path/filepath"
)
func f(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "net-001.ckpt"), data, 0o644)
}
`,
			want: []string{"7:[ckpt-atomic-write]"},
		},
		{
			name: "os.OpenFile with a ckpt suffix concatenation is flagged",
			src: `package fix
import "os"
func f(name string) error {
	fp, err := os.OpenFile(name+".ckpt", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	return fp.Close()
}
`,
			want: []string{"4:[ckpt-atomic-write]"},
		},
		{
			name:    "the atomic writer package itself is exempt",
			relfile: "internal/nn/ckpt/ckpt.go",
			src: `package ckpt
import "os"
func f() error {
	fp, err := os.Create("net-00000001.ckpt")
	if err != nil {
		return err
	}
	return fp.Close()
}
`,
		},
		{
			name: "non-checkpoint paths are not flagged",
			src: `package fix
import "os"
func f(data []byte) error {
	return os.WriteFile("trace.txt", data, 0o644)
}
`,
		},
		{
			name: "pragma suppresses ckpt-atomic-write",
			src: `package fix
import "os"
func f(data []byte) error {
	return os.WriteFile("model.ckpt", data, 0o644) //lint:allow ckpt-atomic-write fixture demonstrates suppression
}
`,
		},

		// ---- shard-local-state ----
		{
			name: "policy writes to package-level state are flagged",
			src: `package fix
var hits int
var table = map[int]int{}
func f() {
	hits++
	table[3] = 1
}
`,
			want: []string{"5:[shard-local-state]", "6:[shard-local-state]"},
		},
		{
			name: "instance-local and local-variable writes are allowed",
			src: `package fix
var defaults = 7
type P struct{ n int }
func (p *P) f() {
	p.n++
	local := defaults
	local++
	_ = local
}
`,
		},
		{
			name: "init-time registration writes are allowed",
			src: `package fix
var registered bool
func init() { registered = true }
`,
		},
		{
			name:    "package-level writes outside policy scope are allowed",
			relfile: "internal/trace/gen.go",
			src: `package trace
var calls int
func f() { calls++ }
`,
		},
		{
			name:    "raven core is in scope for shard-local state",
			relfile: "internal/core/state.go",
			src: `package core
var window int64
func f() { window = 9 }
`,
			want: []string{"3:[shard-local-state]"},
		},
		{
			name: "pragma suppresses shard-local-state",
			src: `package fix
var hits int
func f() {
	hits++ //lint:allow shard-local-state fixture demonstrates suppression
}
`,
		},

		// ---- pragma-syntax ----
		{
			name: "pragma without a reason is itself a finding",
			src: `package fix
func f(a float64) bool {
	return a == 0 //lint:allow float-equal
}
`,
			want: []string{"3:[float-equal]", "3:[pragma-syntax]"},
		},
		{
			name: "pragma naming no known rule is an inert comment",
			src: `package fix
//lint:allow no-such-rule because reasons
func f(a float64) bool {
	return a == 0 //lint:allow flaot-equal a mistyped ID suppresses nothing
}
`,
			want: []string{"4:[float-equal]"},
		},
		{
			name: "pragma with no rule ID is a finding",
			src: `package fix
//lint:allow
func f() {}
`,
			want: []string{"2:[pragma-syntax]"},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			relfile := tt.relfile
			if relfile == "" {
				relfile = "internal/policy/fix/fix.go"
			}
			got := lintFixture(t, relfile, tt.src)
			if len(got) != len(tt.want) {
				t.Fatalf("findings mismatch:\n got: %v\nwant: %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("finding %d mismatch:\n got: %v\nwant: %v", i, got, tt.want)
				}
			}
		})
	}
}

// TestFindingFormat pins the exact "file:line: [rule-id] message"
// output contract that scripts/verify.sh and CI grep for.
func TestFindingFormat(t *testing.T) {
	p := loadFixture(t, "internal/policy/fmtcheck/fmtcheck.go", `package fmtcheck
import "math/rand"
func f(n int) int {
	if n < 0 {
		return rand.Intn(5)
	}
	return n
}
`)
	findings := Run([]*Package{p}, DefaultRules())
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %v", findings)
	}
	got := findings[0].String()
	wantPrefix := "internal/policy/fmtcheck/fmtcheck.go:5: [rand-global] "
	if !strings.HasPrefix(got, wantPrefix) {
		t.Fatalf("finding format %q does not start with %q", got, wantPrefix)
	}
}

// TestRuleIDCount pins the rule set, not just its size: each of the
// nine guards a contract nothing else in the repository checks
// (DESIGN.md "Correctness tooling"), so none may vanish, or arrive,
// unnoticed.
func TestRuleIDCount(t *testing.T) {
	want := []string{
		"ckpt-atomic-write", "deadline-on-conn", "float-equal",
		"goroutine-outside-pool", "map-iter-order", "rand-global",
		"shard-local-state", "unchecked-error", "wall-clock",
	}
	var got []string
	for _, r := range DefaultRules() {
		got = append(got, r.ID)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultRules() IDs:\n got: %v\nwant: %v", got, want)
	}
}

// TestLoadModule exercises the module loader end to end on a small
// synthetic module with an internal dependency edge.
func TestLoadModule(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		full := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/tiny\n\ngo 1.22\n")
	write("internal/base/base.go", `package base
func Answer() int { return 42 }
`)
	write("internal/top/top.go", `package top
import "example.com/tiny/internal/base"
func Double() int { return 2 * base.Answer() }
`)
	write("internal/top/skipme_test.go", `package top
import "testing"
func TestNothing(t *testing.T) {}
`)

	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(mod.Pkgs))
	}
	// Dependency order: base before top.
	if mod.Pkgs[0].ImportPath != "example.com/tiny/internal/base" ||
		mod.Pkgs[1].ImportPath != "example.com/tiny/internal/top" {
		t.Fatalf("bad order: %s, %s", mod.Pkgs[0].ImportPath, mod.Pkgs[1].ImportPath)
	}
	for _, p := range mod.Pkgs {
		if len(p.TypeErrs) > 0 {
			t.Fatalf("%s: type errors: %v", p.ImportPath, p.TypeErrs)
		}
	}
	// Pattern selection.
	sel, err := mod.Select([]string{"./internal/top"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].RelDir != "internal/top" {
		t.Fatalf("bad selection: %+v", sel)
	}
	if _, err := mod.Select([]string{"./nonexistent"}); err == nil {
		t.Fatal("want error for unmatched pattern")
	}
	// Lint the synthetic module: it is clean.
	all, err := mod.Select(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs := Run(all, DefaultRules()); len(fs) != 0 {
		t.Fatalf("synthetic module not clean: %v", fs)
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
