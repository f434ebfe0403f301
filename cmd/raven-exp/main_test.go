package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRejectsBadFlags: a non-positive -scale makes raven-exp exit 1
// with a message instead of running the experiment at scale 1, the
// runner's default for an unset scale; so does any -scale beside
// -quick, whose fixed short traces would ignore it.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-exp: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name  string
		args  []string
		names []string // flags the message must name
	}{
		{"scale=0", []string{"-scale", "0"}, []string{"-scale"}},
		{"scale=-1", []string{"-scale", "-1"}, []string{"-scale"}},
		{"quick+scale", []string{"-quick", "-scale", "0.3"}, []string{"-scale", "-quick"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			args := append([]string{"-exp", "fig2a"}, c.args...)
			out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			for _, name := range c.names {
				if !strings.Contains(string(out), name) {
					t.Errorf("the message does not name %s:\n%s", name, out)
				}
			}
		})
	}
}
