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
// or misread makes ravencached exit 1 at start-up, as an out-of-range
// -node does, instead of serving. A non-positive -window becomes 2²⁰
// ticks in the policy registry, -checkpoint-every -3 saves every third
// fit through Go's remainder, -shards 0 serves one shard, a negative
// -maxconns means no cap, a negative -drain makes Close wait forever
// and a negative -decision-budget disarms the decision SLO. -maxconns
// and -drain are refused by server.New, whose error names the Config
// field.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ravencached")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ravencached: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // what the message names
	}{
		{[]string{"-window", "-5"}, "-window"},
		{[]string{"-window", "0"}, "-window"},
		{[]string{"-checkpoint-every", "-3"}, "-checkpoint-every"},
		{[]string{"-checkpoint-every", "0"}, "-checkpoint-every"},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-maxconns", "-3"}, "MaxConns"},
		{[]string{"-drain", "-1s"}, "DrainTimeout"},
		{[]string{"-decision-budget", "-1ms"}, "-decision-budget"},
	} {
		t.Run(strings.Join(tc.args, "="), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0", "-policy", "lru"}, tc.args...)...)
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still serving after 5s, want exit status 1:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1:\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("the message does not name %s:\n%s", tc.want, out)
			}
		})
	}
}
