package main

import (
	"bufio"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"raven/internal/server"
	"raven/internal/trace"
)

// build compiles ravencached into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ravencached")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build ravencached: %v\n%s", err, out)
	}
	return bin
}

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
	bin := build(t)
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

// TestSIGTERMDuringFit: shutdown does not wait for training. Raven's
// first window, 4 000 sampled objects, is handed to the trainer, and the
// second window closes right after, while that fit is unfinished
// (METRICS counts it in raven.train_skipped); SIGTERM follows at once,
// and ravencached exits 0 within its drain bound. Inline, the fit would
// hold the shard lock, and with it the final statistics, until it
// ended.
func TestSIGTERMDuringFit(t *testing.T) {
	const drain = 2 * time.Second
	cmd := exec.Command(build(t), "-addr", "127.0.0.1:0", "-policy", "raven", "-window", "50000", "-drain", drain.String())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20) // the final metrics line is long
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var addr string
	for addr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("ravencached exited before listening")
			}
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr = line[i+len("listening on "):]
			}
		case <-time.After(20 * time.Second):
			t.Fatal("ravencached did not listen within 20s")
		}
	}

	// 5 000 keys, each requested every 5 000 ticks: the request at
	// 50 000 closes the first window, and one more at 100 000, right
	// behind it, closes the second.
	ops := make([]server.Op, 50002)
	for i := range ops {
		ops[i] = server.Op{Key: trace.Key(i % 5000), Size: 100, Time: int64(i)}
	}
	ops[len(ops)-1].Time = 100000
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Pipeline(ops, 32); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	m, err := server.FetchMetrics(addr)
	if err != nil {
		t.Fatal(err)
	}
	if m["raven.train_skipped"] != 1 || m["raven.train_epochs"] != 0 {
		t.Fatalf("raven.train_skipped %d, raven.train_epochs %d: want the second window skipped while the first fit runs",
			m["raven.train_skipped"], m["raven.train_epochs"])
	}

	sent := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for range lines { // drain stdout so the process can exit
	}
	err = cmd.Wait()
	took := time.Since(sent)
	t.Logf("exited %v after SIGTERM", took)
	if took > drain {
		t.Errorf("exit took %v after SIGTERM, want at most the drain bound %v", took, drain)
	}
	if err != nil {
		t.Errorf("exit: %v, want status 0", err)
	}
}
