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

// TestRejectsBadFlags: a bad flag makes raven-sim exit 1 with a message
// before it replays anything. -checkpoint-every below 1 would otherwise
// save every third fit through Go's remainder (-3), or every fit (0);
// an unknown -trace preset would panic in the generator, and the
// message lists the presets there are.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-sim: %v\n%s", err, out)
	}
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
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
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
