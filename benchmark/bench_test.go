package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"testing"
)

// The benchmark builds and reads the repository from its root; tests
// start in the package directory.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	killAll()
	os.Exit(code)
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.miniature()
		a, err := generate(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash || !reflect.DeepEqual(a.key, b.key) || !reflect.DeepEqual(a.set, b.set) {
			t.Errorf("%s: seed 7 generated two different op streams (ops_fnv64 %016x, %016x)", s.name, a.hash, b.hash)
		}
		if a.capacity != b.capacity || a.window != b.window || a.warmEnd != b.warmEnd || a.latEnd != b.latEnd {
			t.Errorf("%s: seed 7 derived two different capacity/window/cuts", s.name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream (ops_fnv64 %016x)", s.name, a.hash)
		}
		sets := 0
		for _, w := range a.set {
			if w {
				sets++
			}
		}
		if got := float64(sets) / float64(a.len()); got < s.setFrac-0.05 || got > s.setFrac+0.05 {
			t.Errorf("%s: %.3f of the ops are SETs, want about %.2f", s.name, got, s.setFrac)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {51, 60}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10 x10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 50); got != 7 {
		t.Errorf("percentile of one sample = %d, want it", got)
	}
}

func TestCorrectOmission(t *testing.T) {
	// Interval 100: a 350 stall hides the callers due at +100, +200 and
	// +300, who would have waited 250, 150 and 50. Nothing at or below
	// the interval adds a sample.
	got := correctOmission([]int64{20, 350, 100, 30}, 100)
	want := []int64{20, 30, 50, 100, 150, 250, 350}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("correctOmission = %v, want %v", got, want)
	}
	// One 1000-long stall among 9 fast replies: uncorrected, p50 and p90
	// are both fast; corrected, the stall's 9 hidden callers make up half
	// the sample.
	rtts := []int64{10, 10, 10, 10, 1000, 10, 10, 10, 10, 10}
	c := correctOmission(rtts, 100)
	if len(c) != 19 {
		t.Fatalf("corrected sample has %d entries, want 19", len(c))
	}
	if p50, p90 := percentile(c, 50), percentile(c, 90); p50 != 100 || p90 != 900 {
		t.Errorf("corrected p50, p90 = %d, %d, want 100, 900", p50, p90)
	}
	if got := correctOmission([]int64{5, 500}, 0); !reflect.DeepEqual(got, []int64{5, 500}) {
		t.Errorf("interval 0 must not correct, got %v", got)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

// flagDefault extracts one flag's default from a binary's -h output.
func flagDefault(t *testing.T, help, flag string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(flag) + `\b.*\n[^\n]*\(default ([^)]+)\)`)
	m := re.FindStringSubmatch(help)
	if m == nil {
		t.Fatalf("no default for -%s in:\n%s", flag, help)
	}
	return m[1]
}

// The traced run builds the stack from constructors, so it restates
// the binaries' flag defaults. This fails when they drift apart.
func TestDefaultsMirrorBinary(t *testing.T) {
	b, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	help := func(bin string) string {
		out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 depending on the Go version
		return string(out)
	}
	cached := help(b.cached)
	for flag, want := range map[string]string{
		"score-cache":      fmt.Sprint(servedDefaults.ScoreCache),
		"inference32":      fmt.Sprint(servedDefaults.Inference32),
		"decision-budget":  servedDefaults.DecisionBudget.String(),
		"seed":             fmt.Sprint(servedDefaults.Seed),
		"checkpoint-every": fmt.Sprint(servedDefaults.CheckpointEvery),
	} {
		if got := flagDefault(t, cached, flag); got != want {
			t.Errorf("ravencached -%s defaults to %s, the traced run builds with %s", flag, got, want)
		}
	}
	if got := flagDefault(t, help(b.router), "seed"); got != fmt.Sprint(routerSeedDefault) {
		t.Errorf("ravenrouter -seed defaults to %s, the traced run builds with %d", got, routerSeedDefault)
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics
// with the same units.
func TestCatalogueMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var manifest struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd)
	check("per_layer", manifest.PerLayer, perLayer)
	var names []metric
	for _, s := range specs {
		names = append(names, metric{name: s.name})
	}
	check("workloads", manifest.Workloads, names)
}

// The -smoke miniature: every workload through the real binaries and
// through the traced in-process stack, with the correctness gate on.
func TestSmoke(t *testing.T) {
	b, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 3, smoke: true, traced: true, traceDir: t.TempDir()}
	for _, s := range specs {
		wr, err := measure(b, s, cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d violations=%v", s.name, wr.Correct, wr.Failed, wr.Violations)
		}
		for _, m := range endToEnd {
			if v, ok := wr.EndToEnd[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want > 0", s.name, m.name, v, ok)
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", s.name, m.name)
			}
		}
		if _, err := os.Stat(cfg.traceDir + "/trace_" + s.name + ".json"); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}
