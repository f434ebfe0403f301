package raven_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"

	"raven/internal/lint"
	"raven/internal/server"
)

// TestMetricsCatalogue: DESIGN.md's "Metrics catalogue" has one row per
// metric name ravencached and ravenrouter serve, and every row names
// one they serve. The test builds both binaries, starts
// `ravencached -policy raven -admit learned -shards 2` with a router in
// front of it, and reads METRICS from each. Names are folded before
// the comparison: shard<N> and node<i> stand for every index, and a
// histogram's .count/.mean/.p50/.p90/.p99/.max rows are one name.
func TestMetricsCatalogue(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "./cmd/ravencached", "./cmd/ravenrouter").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	node := startListening(t, filepath.Join(dir, "ravencached"),
		"-addr", "127.0.0.1:0", "-policy", "raven", "-admit", "learned", "-shards", "2")
	router := startListening(t, filepath.Join(dir, "ravenrouter"),
		"-addr", "127.0.0.1:0", "-cluster", node)

	served := map[string]bool{}
	lines := 0
	for _, addr := range []string{node, router} {
		m, err := server.FetchMetrics(addr)
		if err != nil {
			t.Fatalf("METRICS from %s: %v", addr, err)
		}
		lines += len(m)
		for name := range m {
			served[foldMetric(name)] = true
		}
	}

	rows := map[string]bool{}
	rowRE := regexp.MustCompile("^\\| `([^`]+)` \\|")
	for _, line := range strings.Split(designSection(t, "Metrics catalogue"), "\n") {
		m := rowRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if rows[m[1]] {
			t.Errorf("the catalogue has two rows for %s", m[1])
		}
		rows[m[1]] = true
	}
	if len(rows) == 0 {
		t.Fatal("no catalogue rows found: the table's format changed")
	}
	for _, name := range sortedKeys(served) {
		if !rows[name] {
			t.Errorf("the binaries serve %s, which has no catalogue row", name)
		}
	}
	for _, name := range sortedKeys(rows) {
		if !served[name] {
			t.Errorf("the catalogue has a row for %s, which neither binary serves", name)
		}
	}
	t.Logf("%d METRICS lines fold to %d names", lines, len(served))
}

var (
	shardRE      = regexp.MustCompile(`\.shard\d+\.`)
	nodeRE       = regexp.MustCompile(`\.node\d+\.`)
	histSuffixRE = regexp.MustCompile(`\.(count|mean|p50|p90|p99|max)$`)
)

// foldMetric maps a served metric name to its catalogue row name.
func foldMetric(name string) string {
	name = shardRE.ReplaceAllString(name, ".shard<N>.")
	name = nodeRE.ReplaceAllString(name, ".node<i>.")
	return histSuffixRE.ReplaceAllString(name, "")
}

// startListening runs bin with args until the test ends and returns
// the address its "listening on" start-up line names.
func startListening(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		return a
	case <-time.After(20 * time.Second):
		t.Fatalf("%s never reported listening", filepath.Base(bin))
		return ""
	}
}

// TestDesignCitationsResolve: every DESIGN.md citation of a heading in
// the repository's Go comments, shell comments and Markdown files names
// a "##" or "###" heading of DESIGN.md, or the part of one before " (".
// A citation is the file name, then the heading in double quotes,
// possibly in parentheses and wrapped over comment lines. CHANGES.md is
// history and keeps the names it was written with; a citation inside a
// Markdown code span shows the form and cites nothing.
func TestDesignCitationsResolve(t *testing.T) {
	headings := map[string]bool{}
	for _, h := range markdownHeadings(t, "DESIGN.md") {
		headings[h] = true
		if short, _, ok := strings.Cut(h, " ("); ok {
			headings[short] = true
		}
	}

	citeRE := regexp.MustCompile(`DESIGN\.md\s*\(?"([^"]+)"`)
	cited := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		var text string
		switch filepath.Ext(path) {
		case ".go":
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, c := range f.Comments {
				text += c.Text() + "\n"
			}
		case ".sh":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, line := range strings.Split(string(src), "\n") {
				if c, ok := strings.CutPrefix(strings.TrimSpace(line), "#"); ok {
					text += c + "\n"
				}
			}
		case ".md":
			if path == "CHANGES.md" {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text = maskCodeSpans(string(src))
		}
		text = strings.Join(strings.Fields(text), " ")
		for _, m := range citeRE.FindAllStringSubmatch(text, -1) {
			cited++
			if !headings[m[1]] {
				t.Errorf("%s cites DESIGN.md %q, which is no heading of it", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("no citations found: the pattern no longer matches")
	}
	t.Logf("%d citations resolve", cited)
}

// maskCodeSpans replaces every backtick code span of s, backticks
// included, with spaces of the same byte length.
func maskCodeSpans(s string) string {
	b := []byte(s)
	for _, span := range codeSpanRE.FindAllStringIndex(s, -1) {
		for i := span[0]; i < span[1]; i++ {
			b[i] = ' '
		}
	}
	return string(b)
}

var codeSpanRE = regexp.MustCompile("`[^`]*`")

// TestNumbersHaveSources: every number followed by a unit in README.md
// and DESIGN.md, outside code spans and fences, has a source tag in its
// sentence, list item or table row, and every tag resolves. The tags:
//
//   - `BENCH_<date>.json` with a backticked `workloads.…` JSON path: the
//     file exists, the path holds a number, and some number of the
//     same unit equals it at the prose's precision and unit scale;
//   - EXPERIMENTS.md "<heading>", naming exactly one heading (or the
//     start of exactly one);
//   - a Test…, Benchmark… or Fuzz… name some _test.go declares (a
//     trailing * matches a prefix);
//   - a paper section, §n;
//   - a backticked package-level Go constant of the module, whose value
//     the number must equal (a duration in ns, a byte count in B).
//
// Untagged numbers are not exempted by any list: source them or delete
// them.
func TestNumbersHaveSources(t *testing.T) {
	mod, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	src := sources{
		consts:   map[string][]constant.Value{},
		declared: declaredTests(t),
		expHeads: markdownHeadings(t, "EXPERIMENTS.md"),
		bench:    map[string]any{},
	}
	for _, p := range mod.Pkgs {
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok {
				src.consts[name] = append(src.consts[name], c.Val())
				src.consts[p.Pkg.Name()+"."+name] = append(src.consts[p.Pkg.Name()+"."+name], c.Val())
			}
		}
	}
	numbers := 0
	for _, file := range []string{"README.md", "DESIGN.md"} {
		for _, u := range docUnits(t, file) {
			numbers += src.check(t, u)
		}
	}
	if numbers == 0 {
		t.Fatal("no numbers with units found: the pattern no longer matches")
	}
	t.Logf("%d numbers with units checked", numbers)
}

// A docUnit is one sentence, list item, table row or heading.
type docUnit struct {
	file string
	line int
	text string
}

func (u docUnit) String() string { return fmt.Sprintf("%s:%d", u.file, u.line) }

var listItemRE = regexp.MustCompile(`^\s*(?:[-*+]|\d+\.)\s`)

// docUnits splits a Markdown file into the units a source tag covers.
// Fenced code and indented code blocks are skipped.
func docUnits(t *testing.T, file string) []docUnit {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var (
		units    []docUnit
		para     []string
		start    int
		item     bool
		lastItem bool // the last block was a list item
		fence    bool
	)
	flush := func() {
		if len(para) == 0 {
			return
		}
		text := strings.Join(para, " ")
		if item {
			units = append(units, docUnit{file, start, text})
		} else {
			for _, s := range sentences(text) {
				units = append(units, docUnit{file, start, s})
			}
		}
		lastItem, para = item, nil
	}
	for i, line := range strings.Split(string(b), "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~"):
			flush()
			fence = !fence
		case fence:
		case trimmed == "":
			flush()
		case strings.HasPrefix(trimmed, "|") || strings.HasPrefix(trimmed, "#"):
			flush()
			units = append(units, docUnit{file, i + 1, trimmed})
			lastItem = false
		case listItemRE.MatchString(line):
			flush()
			para, start, item = []string{trimmed}, i+1, true
		case len(para) == 0 && strings.HasPrefix(line, "    ") && !lastItem:
			// an indented code block
		default:
			if len(para) == 0 {
				start, item = i+1, lastItem && strings.HasPrefix(line, " ")
			}
			para = append(para, trimmed)
		}
	}
	flush()
	return units
}

// sentences splits a paragraph after each '.', '!' or '?' that is
// followed by a space and then a capital letter, a backtick, '*' or
// '('. Code spans are never split.
func sentences(text string) []string {
	masked := maskCodeSpans(text)
	var out []string
	from := 0
	for i := 0; i < len(masked)-2; i++ {
		if !strings.ContainsRune(".!?", rune(masked[i])) || masked[i+1] != ' ' {
			continue
		}
		next, _ := utf8.DecodeRuneInString(strings.TrimLeft(text[i+1:], " "))
		if unicode.IsUpper(next) || strings.ContainsRune("`*(", next) {
			out = append(out, strings.TrimSpace(text[from:i+1]))
			from = i + 1
		}
	}
	return append(out, strings.TrimSpace(text[from:]))
}

// A quantity is a number and its unit as the prose writes it.
type quantity struct {
	text    string
	value   float64 // in the written unit, the k multiplier applied
	tol     float64 // half the last written digit, in the written unit
	unit    string
	isRange bool
}

const numPat = `\d+(?:[ ,\x{202F}]\d{3})*(?:\.\d+)?`

var quantityRE = regexp.MustCompile(`(` + numPat + `)(k?)(?:\s?[–-]\s?(` + numPat + `)(k?))?([ \x{00A0}\x{202F}]?)(req/s|ns|µs|ms|min|s|KiB|MiB|GiB|KB|MB|GB|B|%|pp|×)`)

// quantities returns the numbers with units in text, code spans
// masked.
func quantities(text string) []quantity {
	masked := maskCodeSpans(text)
	var out []quantity
	for _, m := range quantityRE.FindAllStringSubmatchIndex(masked, -1) {
		if m[0] > 0 {
			if r, _ := utf8.DecodeLastRuneInString(masked[:m[0]]); unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.' {
				continue
			}
		}
		unit := masked[m[12]:m[13]]
		after, _ := utf8.DecodeRuneInString(masked[m[1]:])
		switch unit {
		case "%":
		case "×":
			// A factor is written 3×; 8 × n and 2×10⁷ are arithmetic.
			if m[11] > m[10] || unicode.IsDigit(after) || strings.ContainsRune("⁰¹²³⁴⁵⁶⁷⁸⁹", after) {
				continue
			}
		default:
			if unicode.IsLetter(after) || unicode.IsDigit(after) {
				continue
			}
		}
		last := masked[m[2]:m[3]]
		k := masked[m[4]:m[5]]
		if m[6] >= 0 {
			last, k = masked[m[6]:m[7]], masked[m[8]:m[9]]
		}
		v, tol := parseNumber(last, k)
		out = append(out, quantity{
			text: masked[m[0]:m[1]], value: v, tol: tol, unit: unit,
			isRange: m[6] >= 0,
		})
	}
	return out
}

// parseNumber reads "4 000", "1,024" or "43.0" with an optional k, and
// returns the value and half its last written digit.
func parseNumber(s, k string) (v, tol float64) {
	s = strings.NewReplacer(" ", "", ",", "", "\u202f", "").Replace(s)
	v, _ = strconv.ParseFloat(s, 64)
	tol = 0.5
	if _, frac, ok := strings.Cut(s, "."); ok {
		tol = 0.5 * math.Pow(10, -float64(len(frac)))
	}
	if k == "k" {
		v, tol = v*1e3, tol*1e3
	}
	return v, tol
}

// unitScale gives each unit's family and its size in the family's
// base: ns for time, B for bytes, a plain ratio for shares.
var unitScale = map[string]struct {
	family string
	scale  float64
}{
	"ns": {"time", 1}, "µs": {"time", 1e3}, "us": {"time", 1e3}, "ms": {"time", 1e6},
	"s": {"time", 1e9}, "min": {"time", 60e9},
	"B": {"bytes", 1}, "KB": {"bytes", 1e3}, "MB": {"bytes", 1e6}, "GB": {"bytes", 1e9},
	"KiB": {"bytes", 1 << 10}, "MiB": {"bytes", 1 << 20}, "GiB": {"bytes", 1 << 30},
	"mb":    {"bytes", 1e6},
	"req/s": {"rate", 1}, "rps": {"rate", 1},
	"%": {"ratio", 0.01}, "pp": {"ratio", 0.01}, "×": {"ratio", 1}, "frac": {"ratio", 1},
	"ohr": {"ratio", 1}, "bhr": {"ratio", 1},
}

// states reports whether q writes want, a value in unit (or a bare
// number when unit is ""), at q's precision.
func (q quantity) states(want float64, unit string) bool {
	if q.isRange {
		return false
	}
	v, tol := q.value, q.tol
	if unit != "" {
		from, to := unitScale[q.unit], unitScale[unit]
		if from.family != to.family {
			return false
		}
		v, tol = v*from.scale/to.scale, tol*from.scale/to.scale
	}
	return math.Abs(v-want) <= tol*(1+1e-9)
}

// sources resolves the tags of a unit.
type sources struct {
	consts   map[string][]constant.Value
	declared map[string]bool
	expHeads []string
	bench    map[string]any // parsed BENCH files by name
}

var (
	benchFileRE = regexp.MustCompile(`^BENCH_\d{4}-\d{2}-\d{2}\.json$`)
	benchPathRE = regexp.MustCompile(`^workloads\.[\w.]+$`)
	identRE     = regexp.MustCompile(`^(?:[a-z]\w*\.)?[A-Za-z_]\w*$`)
	testNameRE  = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	expCiteRE   = regexp.MustCompile(`EXPERIMENTS\.md "([^"]+)"`)
	paperRE     = regexp.MustCompile(`§\s?\d`)
)

// check reports every unsourced number and unresolved tag of u and
// returns how many numbers with units u holds.
func (s *sources) check(t *testing.T, u docUnit) int {
	t.Helper()
	qs := quantities(u.text)
	anyTag := paperRE.MatchString(u.text)
	for _, m := range testNameRE.FindAllStringSubmatch(u.text, -1) {
		if s.testDeclared(m[1], m[2] == "*") {
			anyTag = true
		} else {
			t.Errorf("%s: %s%s is declared in no _test.go", u, m[1], m[2])
		}
	}
	for _, m := range expCiteRE.FindAllStringSubmatch(u.text, -1) {
		if n := s.expMatches(m[1]); n == 1 {
			anyTag = true
		} else {
			t.Errorf("%s: EXPERIMENTS.md %q matches %d headings, want 1", u, m[1], n)
		}
	}

	type benchTag struct {
		tag  string
		want float64
		unit string
	}
	var benchTags []benchTag
	var consts []float64
	var files, paths []string
	for _, span := range codeSpanRE.FindAllString(u.text, -1) {
		span = strings.Trim(span, "`")
		switch {
		case benchFileRE.MatchString(span):
			files = append(files, span)
		case benchPathRE.MatchString(span):
			paths = append(paths, span)
		case identRE.MatchString(span):
			for _, v := range s.consts[span] {
				if f, ok := constant.Float64Val(constant.ToFloat(v)); ok {
					consts = append(consts, f)
				}
			}
		}
	}
	for _, path := range paths {
		if len(files) == 0 {
			t.Errorf("%s: %s names no BENCH_<date>.json beside it", u, path)
		}
		for _, file := range files {
			v, err := s.benchValue(file, path)
			if err != nil {
				t.Errorf("%s: %v", u, err)
				continue
			}
			benchTags = append(benchTags, benchTag{file + " " + path, v, benchUnit(path)})
		}
	}

	for _, q := range qs {
		ok := anyTag
		for _, want := range consts {
			if fam := unitScale[q.unit]; fam.family == "time" || fam.family == "bytes" {
				want /= fam.scale // a duration constant is in ns, a size in B
			}
			ok = ok || q.states(want, "")
		}
		for _, b := range benchTags {
			ok = ok || q.states(b.want, b.unit)
		}
		if !ok {
			t.Errorf("%s: %q has no source tag in %q", u, q.text, u.text)
		}
	}
	for _, b := range benchTags {
		stated := false
		for _, q := range qs {
			stated = stated || q.states(b.want, b.unit)
		}
		if !stated {
			t.Errorf("%s: %s holds %g, which no number of the unit states", u, b.tag, b.want)
		}
	}
	return len(qs)
}

// benchUnit reads a recorded metric's unit off its name:
// throughput_rps is in req/s, lat_p50_us in µs, peak_rss_mb in MB.
func benchUnit(path string) string {
	parts := strings.Split(path, ".")
	for i := len(parts) - 1; i >= 0; i-- {
		words := strings.Split(parts[i], "_")
		for j := len(words) - 1; j >= 0; j-- {
			if _, ok := unitScale[words[j]]; ok {
				return words[j]
			}
		}
	}
	return ""
}

// benchValue returns the number at a dotted JSON path of a recording.
func (s *sources) benchValue(file, path string) (float64, error) {
	doc, ok := s.bench[file]
	if !ok {
		b, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return 0, fmt.Errorf("%s: %v", file, err)
		}
		s.bench[file] = doc
	}
	for _, key := range strings.Split(path, ".") {
		obj, ok := doc.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("%s has no %s", file, path)
		}
		if doc, ok = obj[key]; !ok {
			return 0, fmt.Errorf("%s has no %s", file, path)
		}
	}
	v, ok := doc.(float64)
	if !ok {
		return 0, fmt.Errorf("%s %s holds no number", file, path)
	}
	return v, nil
}

func (s *sources) testDeclared(name string, prefix bool) bool {
	if !prefix {
		return s.declared[name]
	}
	for d := range s.declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

// expMatches counts the EXPERIMENTS.md headings that are, or start
// with, cite.
func (s *sources) expMatches(cite string) int {
	n := 0
	for _, h := range s.expHeads {
		if strings.HasPrefix(h, cite) {
			n++
		}
	}
	return n
}

// declaredTests returns every Test, Benchmark and Fuzz function some
// _test.go of the module declares.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
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
	return declared
}

// markdownHeadings returns the text of every "##" and "###" heading of
// file.
func markdownHeadings(t *testing.T, file string) []string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		for _, prefix := range []string{"## ", "### "} {
			if h, ok := strings.CutPrefix(line, prefix); ok {
				out = append(out, h)
			}
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
