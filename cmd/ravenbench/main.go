// Command ravenbench records and gates the repository's benchmark. It
// measures nothing itself: benchmark/ is the only place the served
// system is timed, and BENCHMARK.json the only list of the command, the
// workloads, the end-to-end metrics and their bounds (DESIGN.md
// "Performance: two timing surfaces"). From the repository root:
//
//	ravenbench [-out DIR]                   record BENCH_<date>.json
//	ravenbench -compare OLD.json NEW.json   gate NEW against OLD
//
// Recording runs the command for every workload at the fixed seeds
// 1–10 untraced and once traced at seed 1 (which rewrites
// benchmark/results/trace_*.json); the traced run's per-layer metrics
// are stored, not gated. -compare prints a verdict per workload and
// end-to-end metric and exits 1 on a "worse", a higher share of failed
// operations, or a workload or metric missing from a report.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

const specFile = "BENCHMARK.json"
const seeds = 10 // untraced runs per workload, at seeds 1..seeds

// spec is the part of BENCHMARK.json the recorder and the gate read.
type spec struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the parent's median it may worsen by
}

// result is the JSON object a benchmark run prints as its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// report is a BENCH_<date>.json file.
type report struct {
	Date      string               `json:"date"`
	Workloads map[string]*workload `json:"workloads"`
}

type workload struct {
	Attempted int64              `json:"attempted"` // summed over the untraced runs
	Failed    int64              `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"` // the traced run, seed 1
}

// series is one metric's untraced runs, in seed order.
type series struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// summarise derives the median and quartiles from Values (the gate does
// so again for the reports it reads), interpolating at position p·(n+1):
// the exclusive method of benchmark/README.md's spread table.
func (s *series) summarise() {
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	quantile := func(p float64) float64 {
		pos := p*float64(len(sorted)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return sorted[0]
		} else if lo >= len(sorted)-1 {
			return sorted[len(sorted)-1]
		}
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	s.Q1, s.Median, s.Q3 = quantile(0.25), quantile(0.5), quantile(0.75)
}

// parseResult decodes the last non-empty line of a run's output.
func parseResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result object: %w", err)
	}
	return &res, nil
}

// runOnce performs one benchmark run; run starts the benchmark command
// with the given arguments and returns its standard output. A run that
// fails or is not correct is an error: a recording holds checked runs.
func runOnce(sp *spec, run func(args ...string) ([]byte, error), workload string, seed, trace int) (*result, error) {
	out, runErr := run("--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	res, err := parseResult(out)
	if err == nil && !res.Correct {
		err = fmt.Errorf("the run was not correct (%d of %d operations failed)", res.Failed, res.Attempted)
	} else if runErr != nil {
		err = runErr
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	return res, nil
}

// record runs every workload at seeds 1..seeds untraced and once traced.
func record(sp *spec, run func(args ...string) ([]byte, error)) (*report, error) {
	rep := &report{Date: time.Now().UTC().Format("2006-01-02"), Workloads: map[string]*workload{}}
	for _, w := range sp.Workloads {
		wl := &workload{EndToEnd: map[string]*series{}, PerLayer: map[string]float64{}}
		for _, m := range sp.EndToEnd {
			wl.EndToEnd[m.Name] = &series{}
		}
		for seed := 1; seed <= seeds; seed++ {
			res, err := runOnce(sp, run, w.Name, seed, 0)
			if err != nil {
				return nil, err
			}
			wl.Attempted += res.Attempted
			wl.Failed += res.Failed
			for name, s := range wl.EndToEnd {
				v, ok := res.Metrics[name]
				if !ok {
					return nil, fmt.Errorf("%s seed %d: the result has no end-to-end metric %s", w.Name, seed, name)
				}
				s.Values = append(s.Values, v.Value)
			}
		}
		for _, s := range wl.EndToEnd {
			s.summarise()
		}
		traced, err := runOnce(sp, run, w.Name, 1, 1)
		if err != nil {
			return nil, err
		}
		for name, v := range traced.Metrics {
			wl.PerLayer[name] = v.Value
		}
		rep.Workloads[w.Name] = wl
	}
	return rep, nil
}

// verdict judges one metric of one workload. delta is the median's change
// as a share of the parent's, positive when worse: "worse" when it exceeds
// the bound, else "unresolved" when the parent's inter-quartile spread does
// and the two sets of runs overlap (neither side's every run beats the
// other's), else "within". Runs equal seed for seed leave nothing to resolve:
// what the seed decides (ohr) repeats when no served decision changed.
func verdict(m metric, parent, change *series) (v string, delta float64) {
	sign := 1.0 // after multiplying by sign, lower is better
	if m.Better == "higher" {
		sign = -1
	}
	extent := func(s *series) (best, worst float64) {
		best, worst = math.Inf(1), math.Inf(-1)
		for _, v := range s.Values {
			best, worst = math.Min(best, sign*v), math.Max(worst, sign*v)
		}
		return best, worst
	}
	bestP, worstP := extent(parent)
	bestC, worstC := extent(change)
	base := math.Max(math.Abs(parent.Median), math.SmallestNonzeroFloat64)
	delta = sign * (change.Median - parent.Median) / base
	switch {
	case delta > m.Bound:
		return "worse", delta
	case (parent.Q3-parent.Q1)/base > m.Bound && worstC >= bestP && bestC <= worstP && !slices.Equal(parent.Values, change.Values):
		return "unresolved", delta
	}
	return "within", delta
}

// compare prints the verdicts and reports whether the gate failed.
func compare(sp *spec, parent, change *report, w io.Writer) (failed bool) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "FAIL: "+format+"\n", args...)
		failed = true
	}
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "bound", "verdict")
	for _, wl := range sp.Workloads {
		p, c := parent.Workloads[wl.Name], change.Workloads[wl.Name]
		if p == nil || c == nil {
			fail("workload %s is missing from a report", wl.Name)
			continue
		}
		// The two shares compared without dividing by a zero count.
		if c.Failed*p.Attempted > p.Failed*c.Attempted {
			fail("%s: failed share rose, %d/%d -> %d/%d", wl.Name, p.Failed, p.Attempted, c.Failed, c.Attempted)
		}
		for _, m := range sp.EndToEnd {
			ps, cs := p.EndToEnd[m.Name], c.EndToEnd[m.Name]
			if ps == nil || cs == nil || len(ps.Values) == 0 || len(cs.Values) == 0 {
				fail("%s: metric %s is missing from a report", wl.Name, m.Name)
				continue
			}
			ps.summarise()
			cs.summarise()
			v, delta := verdict(m, ps, cs)
			fmt.Fprintf(w, "%-16s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ps.Median, cs.Median, 100*delta, 100*m.Bound, v)
			failed = failed || v == "worse"
		}
	}
	return failed
}

func loadJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// run is main returning its exit code: 1 the gate or a recording failed, 2 usage or unreadable input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ravenbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", ".", "directory for the BENCH_<date>.json report")
	cmp := fs.Bool("compare", false, "gate two reports: ravenbench -compare OLD.json NEW.json; exits 1 when a metric is worse than its BENCHMARK.json bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exit := func(code int, err error) int {
		fmt.Fprintf(stderr, "ravenbench: %v\n", err)
		return code
	}
	var sp spec
	if err := loadJSON(specFile, &sp); err != nil {
		return exit(2, fmt.Errorf("%w (run from the repository root)", err))
	}
	if *cmp {
		if fs.NArg() != 2 {
			return exit(2, errors.New("usage: ravenbench -compare OLD.json NEW.json"))
		}
		var parent, change report
		if err := errors.Join(loadJSON(fs.Arg(0), &parent), loadJSON(fs.Arg(1), &change)); err != nil {
			return exit(2, err)
		}
		if compare(&sp, &parent, &change, stdout) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || len(sp.Command) == 0 {
		return exit(2, errors.New("usage: ravenbench [-out DIR], with a command in "+specFile))
	}
	rep, err := record(&sp, func(args ...string) ([]byte, error) {
		fmt.Fprintln(stderr, "ravenbench:", args)
		cmd := exec.Command(sp.Command[0], slices.Concat(sp.Command[1:], args)...)
		cmd.Stderr = stderr
		return cmd.Output()
	})
	if err != nil {
		return exit(1, err)
	}
	path := filepath.Join(*out, "BENCH_"+rep.Date+".json")
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	if err != nil {
		return exit(1, err)
	}
	fmt.Fprintf(stdout, "ravenbench: wrote %s\n", path)
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
