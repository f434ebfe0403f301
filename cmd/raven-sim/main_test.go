package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raven/internal/trace"
)

// build compiles raven-sim into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "raven-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-sim: %v\n%s", err, out)
	}
	return bin
}

// TestRejectsBadFlags: a bad flag makes raven-sim exit 1 with a message
// before it replays anything. -checkpoint-every below 1 would otherwise
// save every third fit through Go's remainder (-3), or every fit (0);
// an unknown -trace preset would panic in the generator, and the
// message lists the presets there are; an unknown policy would fail
// only after the names before it had replayed, and an unknown -net law
// only after the trace was built, and so would -shards below 1 and a
// -warmup outside [0, 1), after printing the result header; an unknown
// -admit mode would not fail at all when -out skips the replay, and a
// negative -capacity would fail in the engine after the header. The
// rest would be silently replaced: -requests 0 and -objects 0 by the
// generator's 100 000 and 1 000, a non-positive -scale by the scale-1
// preset, a negative -cachefrac by a 64-byte cache, a negative
// -decision-budget by no budget at all, a second trace source by the
// first (-trace over -synthetic) and an empty -policies by a header
// with no rows. The retired -workers is an undefined flag, refused
// with the flag package's status 2. No case prints the result table's
// header.
func TestRejectsBadFlags(t *testing.T) {
	bin := build(t)
	synth := []string{"-synthetic", "uniform", "-requests", "1000", "-policies", "lru"}
	presets := make([]string, len(trace.AllProductionPresets))
	for i, p := range trace.AllProductionPresets {
		presets[i] = string(p)
	}
	cases := []struct {
		name string
		args []string
		want []string // in the message
	}{
		{"checkpoint-every=-3", append(synth, "-checkpoint-every", "-3"), []string{"-checkpoint-every"}},
		{"checkpoint-every=0", append(synth, "-checkpoint-every", "0"), []string{"-checkpoint-every"}},
		{"trace=bogus", []string{"-trace", "bogus", "-policies", "lru"}, append([]string{`"bogus"`}, presets...)},
		{"synthetic=bogus", []string{"-synthetic", "bogus", "-policies", "lru"}, []string{`"bogus"`, "poisson", "uniform", "pareto"}},
		{"requests=0", append(synth, "-requests", "0"), []string{"-requests"}},
		{"objects=0", append(synth, "-objects", "0"), []string{"-objects"}},
		{"scale=0", []string{"-trace", "wiki18", "-scale", "0", "-policies", "lru"}, []string{"-scale"}},
		{"scale=-1", []string{"-trace", "wiki18", "-scale", "-1", "-policies", "lru"}, []string{"-scale"}},
		{"cachefrac=-1", append(synth, "-cachefrac", "-1"), []string{"-cachefrac"}},
		{"decision-budget=-5ms", append(synth, "-policies", "raven", "-decision-budget", "-5ms"), []string{"-decision-budget"}},
		{"policies=lru,bogus", append(synth, "-policies", "lru,bogus"), []string{`"bogus"`}},
		{"net=bogus", append(synth, "-net", "bogus"), []string{"-net", `"bogus"`}},
		{"shards=-1", append(synth, "-shards", "-1"), []string{"-shards"}},
		{"warmup=1.5", append(synth, "-warmup", "1.5"), []string{"-warmup"}},
		{"admit=bogus", append(synth, "-admit", "bogus", "-out", os.DevNull), []string{"-admit", `"bogus"`}},
		{"synthetic+trace", append(synth, "-trace", "wiki18"), []string{"-trace", "-synthetic", "-file"}},
		{"capacity=-5", append(synth, "-capacity", "-5"), []string{"-capacity"}},
		{"policies=empty", append(synth, "-policies", ""), []string{"-policies"}},
		{"workers=-3", append(synth, "-policies", "raven", "-workers", "-3"), []string{"-workers"}},
	}
	// An undefined flag is the flag package's to refuse, with status 2.
	undefined := map[string]bool{"workers=-3": true}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
			}
			want := 1
			if undefined[c.name] {
				want = 2
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != want {
				t.Fatalf("exit: %v, want status %d:\n%s", err, want, out)
			}
			for _, w := range c.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("the message does not name %s:\n%s", w, out)
				}
			}
			if strings.Contains(string(out), "OHR") {
				t.Errorf("a replay ran before the exit:\n%s", out)
			}
		})
	}
}

// TestFileRoundTrip: a synthetic trace written with -out, plain and
// gzipped, replays from -file with the OHR, BHR and evictions of the
// generated trace itself; -out /dev/stdout prints the plain file's
// bytes, and -analyze prints the trace's report instead of a replay.
func TestFileRoundTrip(t *testing.T) {
	bin := build(t)
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("raven-sim %s: %v", strings.Join(args, " "), err)
		}
		return string(out)
	}
	// results keeps each result row's policy, OHR, BHR and evictions:
	// the header names the trace, and the last two columns are wall
	// clock.
	results := func(out string) string {
		var rows []string
		for _, line := range strings.Split(out, "\n")[2:] {
			if f := strings.Fields(line); len(f) >= 4 {
				rows = append(rows, strings.Join(f[:4], " "))
			}
		}
		if len(rows) == 0 {
			t.Fatalf("no result rows:\n%s", out)
		}
		return strings.Join(rows, "\n")
	}
	replay := []string{"-policies", "lru,lhd", "-seed", "7"}
	gen := append([]string{"-synthetic", "pareto", "-requests", "20000", "-objects", "2000", "-varsizes"}, replay...)
	want := results(run(gen...))
	dir := t.TempDir()
	for _, name := range []string{"t.txt", "t.txt.gz"} {
		path := filepath.Join(dir, name)
		if out := run(append(gen, "-out", path)...); out != "" {
			t.Errorf("-out %s printed %q", name, out)
		}
		if got := results(run(append([]string{"-file", path}, replay...)...)); got != want {
			t.Errorf("-file %s replays\n%s\nthe generated trace replays\n%s", name, got, want)
		}
	}
	plain, err := os.ReadFile(filepath.Join(dir, "t.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out := run(append(gen, "-out", "/dev/stdout")...); out != string(plain) {
		t.Errorf("-out /dev/stdout printed %d bytes, the file holds %d", len(out), len(plain))
	}
	report := run("-file", filepath.Join(dir, "t.txt.gz"), "-analyze")
	for _, line := range []string{"trace:        " + filepath.Join(dir, "t.txt.gz"), "requests:     20000", "zipf slope:   "} {
		if !strings.Contains(report, "\n"+line) && !strings.HasPrefix(report, line) {
			t.Errorf("-analyze prints no %q line:\n%s", line, report)
		}
	}
	if strings.Contains(report, "OHR") {
		t.Errorf("-analyze replayed the trace:\n%s", report)
	}
}
