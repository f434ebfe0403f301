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

// TestRejectsBadFlags: an unknown -gen preset makes raven-trace exit 1
// with a message that lists the presets there are, instead of a panic
// in the generator.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-trace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-trace: %v\n%s", err, out)
	}
	t.Run("gen=bogus", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin, "-gen", "bogus", "-out", filepath.Join(t.TempDir(), "t.txt")).CombinedOutput()
		if ctx.Err() != nil {
			t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("exit: %v, want status 1:\n%s", err, out)
		}
		for _, p := range trace.AllProductionPresets {
			if !strings.Contains(string(out), string(p)) {
				t.Errorf("the message does not list preset %s:\n%s", p, out)
			}
		}
	})
}
