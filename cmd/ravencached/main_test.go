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

// TestRejectsBadFlags: a flag value the server would silently replace
// or misread — a non-positive -window becomes 2²⁰ ticks in the policy
// registry, and -checkpoint-every -3 saves every third fit through
// Go's remainder — makes ravencached exit 1 at start-up, as an
// out-of-range -node does, instead of serving.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ravencached")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ravencached: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-window", "-5"},
		{"-window", "0"},
		{"-checkpoint-every", "-3"},
		{"-checkpoint-every", "0"},
	} {
		t.Run(strings.Join(args, "="), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-policy", "lru"}, args...)...)
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still serving after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			if !strings.Contains(string(out), args[0]) {
				t.Errorf("the message does not name %s:\n%s", args[0], out)
			}
		})
	}
}
