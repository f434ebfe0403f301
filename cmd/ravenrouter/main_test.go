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

// TestRejectsBadFlags: ravenrouter exits 1 at start-up, instead of
// serving, without a -cluster, on a negative -maxconns (which would
// mean no cap) and on a negative -drain (which would make Close wait
// forever). The last two are refused by server.New, whose error names
// the Config field. Port 1 of the loopback stands in for a node: the
// router does not dial before a request or a probe needs it.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ravenrouter")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ravenrouter: %v\n%s", err, out)
	}
	node := []string{"-cluster", "127.0.0.1:1"}
	for _, tc := range []struct {
		name string
		args []string
		want string // what the message names
	}{
		{"no-cluster", nil, "-cluster"},
		{"-maxconns=-1", append(node, "-maxconns", "-1"), "MaxConns"},
		{"-drain=-1s", append(node, "-drain", "-1s"), "DrainTimeout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
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
