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

// TestRejectsBadFlags: -checkpoint-every below 1 makes raven-sim exit
// 1 before it replays anything; -3 would otherwise save every third fit
// through Go's remainder, and 0 every fit.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "raven-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build raven-sim: %v\n%s", err, out)
	}
	for _, every := range []string{"-3", "0"} {
		t.Run("checkpoint-every="+every, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-synthetic", "uniform", "-requests", "1000",
				"-policies", "lru", "-checkpoint-every", every)
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			if !strings.Contains(string(out), "-checkpoint-every") {
				t.Errorf("the message does not name -checkpoint-every:\n%s", out)
			}
		})
	}
}
