package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"raven/internal/trace"
)

// TestRejectsBadFlags: a bad flag makes raven-trace exit 1 with a
// message instead of writing a trace. An unknown -gen preset would
// panic in the generator, and the message lists the presets there are;
// -requests 0 would write the generator's default 100 000 lines and
// -scale 0 the scale-1 preset's 300 000.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-trace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-trace: %v\n%s", err, out)
	}
	presets := make([]string, len(trace.AllProductionPresets))
	for i, p := range trace.AllProductionPresets {
		presets[i] = string(p)
	}
	for _, c := range []struct {
		name string
		args []string
		want []string // in the message
	}{
		{"gen=bogus", []string{"-gen", "bogus"}, presets},
		{"gen-synth=bogus", []string{"-gen-synth", "bogus"}, []string{`"bogus"`, "poisson", "uniform", "pareto"}},
		{"requests=0", []string{"-gen-synth", "uniform", "-requests", "0"}, []string{"-requests"}},
		{"scale=0", []string{"-gen", "wiki18", "-scale", "0"}, []string{"-scale"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			args := append(c.args, "-out", filepath.Join(t.TempDir(), "t.txt"))
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			for _, w := range c.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("the message does not name %s:\n%s", w, out)
				}
			}
		})
	}
}
