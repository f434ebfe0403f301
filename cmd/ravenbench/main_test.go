package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The tests run where ravenbench runs: at the repository root, against
// the repository's own BENCHMARK.json.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	var sp spec
	if err := loadJSON(specFile, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) < 2 || len(sp.EndToEnd) < 2 || len(sp.Command) == 0 {
		t.Fatalf("%s lists %d workloads, %d end-to-end metrics, command %v", specFile, len(sp.Workloads), len(sp.EndToEnd), sp.Command)
	}
	return &sp
}

// quiet is ten runs around 100 spreading by 0.5% between the quartiles,
// inside every bound; noisy spreads them by 1.2 bounds.
func quiet() []float64 { return spreadBy(0.004) }

func noisy(m metric) []float64 { return spreadBy(m.Bound) }

func spreadBy(half float64) []float64 {
	vs := make([]float64, seeds)
	for i := range vs {
		vs[i] = 100 * (1 + 2*half*(float64(i)-4.5)/9)
	}
	return vs
}

func scaled(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

// worsened moves vs by the share x in m's worse direction.
func worsened(m metric, vs []float64, x float64) []float64 {
	if m.Better == "higher" {
		x = -x
	}
	return scaled(vs, 1+x)
}

// synthetic is a report with every workload and metric of sp, all quiet.
func synthetic(sp *spec) *report {
	rep := &report{Date: "synthetic", Workloads: map[string]*workload{}}
	for _, w := range sp.Workloads {
		wl := &workload{Attempted: 1000 * seeds, EndToEnd: map[string]*series{}}
		for _, m := range sp.EndToEnd {
			wl.EndToEnd[m.Name] = &series{Values: quiet()}
		}
		rep.Workloads[w.Name] = wl
	}
	return rep
}

func writeReport(t *testing.T, name string, rep *report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGate drives -compare over synthetic BENCH files: one
// (workload, metric) or one workload is disturbed per case, once for a
// lower-is-better and once for a higher-is-better metric.
func TestCompareGate(t *testing.T) {
	sp := loadSpec(t)
	wl := sp.Workloads[1].Name
	byDirection := map[string]metric{}
	for _, m := range sp.EndToEnd {
		byDirection[m.Better] = m
	}
	if len(byDirection) != 2 {
		t.Fatalf("%s has no metric of each direction: %v", specFile, byDirection)
	}
	for _, m := range byDirection {
		cases := []struct {
			name    string
			disturb func(parent, change *workload)
			code    int
			want    string // a line of the output holds the workload, the metric and this
		}{
			{"worse than the bound", func(_, c *workload) {
				c.EndToEnd[m.Name].Values = worsened(m, quiet(), 1.5*m.Bound)
			}, 1, "worse"},
			{"inside the bound", func(_, c *workload) {
				c.EndToEnd[m.Name].Values = worsened(m, quiet(), 0.5*m.Bound)
			}, 0, "within"},
			{"parent spread wider than the bound, runs overlap", func(p, c *workload) {
				p.EndToEnd[m.Name].Values = noisy(m)
				c.EndToEnd[m.Name].Values = worsened(m, noisy(m), 0.2*m.Bound)
			}, 0, "unresolved"},
			{"noisy, but every run better than every parent run", func(p, c *workload) {
				p.EndToEnd[m.Name].Values = noisy(m)
				far := 0.4 // clear of the parent's best run at any bound up to 0.25
				if m.Better == "higher" {
					far = 2.5
				}
				c.EndToEnd[m.Name].Values = scaled(noisy(m), far)
			}, 0, "within"},
			{"failed share up", func(_, c *workload) { c.Failed = 1 }, 1, "failed share rose"},
			{"metric missing from a report", func(_, c *workload) { delete(c.EndToEnd, m.Name) }, 1, "missing"},
		}
		for _, tc := range cases {
			t.Run(m.Name+"/"+tc.name, func(t *testing.T) {
				parent, change := synthetic(sp), synthetic(sp)
				tc.disturb(parent.Workloads[wl], change.Workloads[wl])
				var out, errOut bytes.Buffer
				code := run([]string{"-compare", writeReport(t, "old.json", parent), writeReport(t, "new.json", change)}, &out, &errOut)
				if code != tc.code {
					t.Errorf("exit code %d, want %d\n%s%s", code, tc.code, out.String(), errOut.String())
				}
				found := false
				for _, line := range strings.Split(out.String(), "\n") {
					mentionsMetric := strings.Contains(line, " "+m.Name+" ") || tc.want == "failed share rose"
					if strings.Contains(line, wl) && mentionsMetric && strings.Contains(line, tc.want) {
						found = true
					} else if strings.HasSuffix(line, "worse") || strings.HasSuffix(line, "unresolved") || strings.HasPrefix(line, "FAIL") {
						t.Errorf("undisturbed line not within: %q", line)
					}
				}
				if !found {
					t.Errorf("no line with %s, %s and %q in:\n%s", wl, m.Name, tc.want, out.String())
				}
			})
		}
	}

	t.Run("workload missing from a report", func(t *testing.T) {
		parent, change := synthetic(sp), synthetic(sp)
		delete(change.Workloads, wl)
		var out bytes.Buffer
		code := run([]string{"-compare", writeReport(t, "old.json", parent), writeReport(t, "new.json", change)}, &out, &out)
		if code != 1 || !strings.Contains(out.String(), "FAIL: workload "+wl+" is missing") {
			t.Errorf("exit code %d, output:\n%s", code, out.String())
		}
	})

	t.Run("a report against itself, however noisy", func(t *testing.T) {
		rep := synthetic(sp)
		for _, m := range sp.EndToEnd {
			rep.Workloads[wl].EndToEnd[m.Name].Values = noisy(m)
		}
		path := writeReport(t, "same.json", rep)
		var out bytes.Buffer
		if code := run([]string{"-compare", path, path}, &out, &out); code != 0 {
			t.Errorf("exit code %d, output:\n%s", code, out.String())
		}
		if n := strings.Count(out.String(), "within\n"); n != len(sp.Workloads)*len(sp.EndToEnd) {
			t.Errorf("%d verdicts within, want %d:\n%s", n, len(sp.Workloads)*len(sp.EndToEnd), out.String())
		}
	})
}

// TestRecordFollowsBenchmarkJSON: which workloads run, at which seeds,
// for how long, and which metrics are kept all come from the
// repository's BENCHMARK.json.
func TestRecordFollowsBenchmarkJSON(t *testing.T) {
	sp := loadSpec(t)
	var calls []string
	rep, err := record(sp, func(args ...string) ([]byte, error) {
		calls = append(calls, strings.Join(args, " "))
		metrics := map[string]map[string]float64{"not.end_to_end": {"value": 1}}
		if args[len(args)-1] == "0" { // --trace 0: the end-to-end catalogue
			for i, m := range sp.EndToEnd {
				metrics[m.Name] = map[string]float64{"value": float64(len(calls) * (i + 1))}
			}
		}
		line, err := json.Marshal(map[string]any{"correct": true, "attempted": 7, "failed": 0, "metrics": metrics})
		return append([]byte("workload metric 1 unit\n"), line...), err
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	seconds := strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64)
	for _, w := range sp.Workloads {
		for seed := 1; seed <= 10; seed++ {
			want = append(want, fmt.Sprintf("--workload %s --seed %d --seconds %s --trace 0", w.Name, seed, seconds))
		}
		want = append(want, fmt.Sprintf("--workload %s --seed 1 --seconds %s --trace 1", w.Name, seconds))
	}
	if strings.Join(calls, "\n") != strings.Join(want, "\n") {
		t.Errorf("runs made:\n%s\nwant:\n%s", strings.Join(calls, "\n"), strings.Join(want, "\n"))
	}
	if len(rep.Workloads) != len(sp.Workloads) {
		t.Errorf("%d workloads recorded, %s lists %d", len(rep.Workloads), specFile, len(sp.Workloads))
	}
	for _, w := range sp.Workloads {
		wl := rep.Workloads[w.Name]
		if wl == nil {
			t.Fatalf("workload %s not recorded", w.Name)
		}
		if wl.Attempted != 70 || wl.Failed != 0 || len(wl.EndToEnd) != len(sp.EndToEnd) {
			t.Errorf("%s: attempted %d, failed %d, %d metrics", w.Name, wl.Attempted, wl.Failed, len(wl.EndToEnd))
		}
		for _, m := range sp.EndToEnd {
			s := wl.EndToEnd[m.Name]
			if s == nil || len(s.Values) != 10 || !(s.Q1 < s.Median && s.Median < s.Q3) {
				t.Errorf("%s %s: recorded %+v", w.Name, m.Name, s)
			}
		}
		if len(wl.PerLayer) != 1 || wl.PerLayer["not.end_to_end"] != 1 {
			t.Errorf("%s: per-layer metrics of the traced run: %v", w.Name, wl.PerLayer)
		}
	}
}

// The last line of a benchmark run (`go run ./benchmark -smoke` prints
// one per workload in this format), behind two of the metric lines.
const benchOutput = `kv_hit_heavy ohr 0.863159 ratio
kv_hit_heavy peak_rss_mb 66.3906 MB
{"correct":true,"attempted":444946,"failed":0,"metrics":{"cpu_us_per_req":{"value":4.356841346861385,"unit":"us"},"lat_p50_us":{"value":16.969709074070312,"unit":"us"},"ohr":{"value":0.8631594200001999,"unit":"ratio"},"peak_rss_mb":{"value":66.390625,"unit":"MB"},"setup_s":{"value":16.13121138842967,"unit":"s"},"throughput_rps":{"value":490455.4598419155,"unit":"1/s"}}}
`

func TestParseResult(t *testing.T) {
	res, err := parseResult([]byte(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 444946 || res.Failed != 0 || len(res.Metrics) != 6 ||
		res.Metrics["throughput_rps"].Value != 490455.4598419155 || res.Metrics["ohr"].Value != 0.8631594200001999 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := parseResult([]byte("kv_hit_heavy ohr 0.863159 ratio\n")); err == nil {
		t.Error("a run that printed no result object parsed")
	}
}

// TestIncorrectRunAbortsRecording: a run whose result says
// correct:false ends the recording at that run, whatever it measured.
func TestIncorrectRunAbortsRecording(t *testing.T) {
	sp := loadSpec(t)
	runs := 0
	rep, err := record(sp, func(...string) ([]byte, error) {
		runs++
		out := benchOutput
		if runs == 3 {
			out = strings.Replace(strings.Replace(out, `"correct":true`, `"correct":false`, 1), `"failed":0`, `"failed":2`, 1)
		}
		return []byte(out), nil
	})
	if err == nil || rep != nil || runs != 3 {
		t.Fatalf("recording went on after an incorrect run: %d runs, report %v, err %v", runs, rep, err)
	}
	if msg := err.Error(); !strings.Contains(msg, sp.Workloads[0].Name+" seed 3") || !strings.Contains(msg, "not correct") {
		t.Errorf("error does not name the run: %v", err)
	}
}
