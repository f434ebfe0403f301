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
// runner's default for an unset scale.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-exp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-exp: %v\n%s", err, out)
	}
	for _, scale := range []string{"0", "-1"} {
		t.Run("scale="+scale, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, "-exp", "fig2a", "-scale", scale).CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			if !strings.Contains(string(out), "-scale") {
				t.Errorf("the message does not name -scale:\n%s", out)
			}
		})
	}
}
