package cluster

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"raven/internal/server"
	"raven/internal/sim"
	"raven/internal/trace"
)

// buildRavencached compiles the real ravencached binary once per test
// binary run.
func buildRavencached(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "ravencached")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ravencached")
	cmd.Dir = "../.." // repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ravencached: %v\n%s", err, out)
	}
	return bin
}

// chaosNode is one spawned ravencached process.
type chaosNode struct {
	bin  string
	addr string
	cmd  *exec.Cmd
}

// start launches (or relaunches) the node and waits for its "listening
// on" line. addr "" picks an ephemeral port and records it, so a
// restart reuses the same address — ring membership is by address.
func (n *chaosNode) start(t *testing.T, idx, nodes int) {
	t.Helper()
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	cmd := exec.Command(n.bin,
		"-addr", addr,
		"-policy", "lru",
		"-capacity", "200",
		"-node", fmt.Sprint(idx),
		"-nodes", fmt.Sprint(nodes),
		"-drain", "1s",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(20 * time.Second)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "listening on ") {
				select {
				case lineCh <- line:
				default:
				}
			}
		}
	}()
	select {
	case line := <-lineCh:
		n.addr = line[strings.Index(line, "listening on ")+len("listening on "):]
	case <-deadline:
		t.Fatalf("node %d never reported listening", idx)
	}
	n.cmd = cmd
}

// kill SIGKILLs the node process (no drain, no goodbye — the chaos).
func (n *chaosNode) kill(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_, _ = n.cmd.Process.Wait()
}

// startFleet spawns n ravencached processes and returns them.
func startFleet(t *testing.T, bin string, n int) []*chaosNode {
	t.Helper()
	fleet := make([]*chaosNode, n)
	for i := range fleet {
		fleet[i] = &chaosNode{bin: bin}
		fleet[i].start(t, i, n)
	}
	return fleet
}

// fleetAddrs extracts the fleet's addresses in node order.
func fleetAddrs(fleet []*chaosNode) []string {
	addrs := make([]string, len(fleet))
	for i, n := range fleet {
		addrs[i] = n.addr
	}
	return addrs
}

// nodeMetricsSnapshot fetches a node's METRICS over a fresh text
// connection.
func nodeMetricsSnapshot(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	m, err := server.FetchMetrics(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("metrics %s: %v", addr, err)
	}
	return m
}

// chaosRouterConfig is the shared router setup: fast probes and a short
// half-open cool-down, so the two runs differ only in the SIGKILL.
func chaosRouterConfig(addrs []string) Config {
	return Config{
		Nodes:          addrs,
		Seed:           42,
		RequestTimeout: time.Second,
		ProbeInterval:  20 * time.Millisecond,
		HalfOpenAfter:  50 * time.Millisecond,
	}
}

// chaosTrace is the replay workload: Zipf-popular keys over a keyspace
// several times the fleet's aggregate capacity, so the hit ratio is
// meaningfully between 0 and 1 and sensitive to losing a node's cache.
func chaosTrace() *trace.Trace {
	return trace.Synthetic(trace.SynthConfig{
		Objects:      500,
		Requests:     8000,
		Interarrival: trace.Poisson,
		Seed:         9,
	})
}

// replayThroughRouter fronts the router with a real server and replays
// the trace over a binary connection. It returns an error rather than
// failing the test so it is safe to run from a non-test goroutine.
func replayThroughRouter(r *Router, tr *trace.Trace) (*server.ReplayResult, error) {
	front, err := server.New(server.Config{
		Addr:         "127.0.0.1:0",
		Backend:      r,
		Registry:     r.Metrics(),
		DrainTimeout: time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer front.Close()
	cl, err := server.Dial(front.Addr())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second
	cl.MaxRetries = 5
	cl.RetryBackoff = 5 * time.Millisecond
	return cl.Replay(tr, 0, sim.CDNModel())
}

// TestChaosNodeChurn is the cluster tier's acceptance test. It spawns
// two real 3-node ravencached fleets. The reference fleet replays a
// Zipf trace undisturbed. The chaos fleet replays the same trace while
// one node is SIGKILLed mid-replay and later restarted on the same
// address. The replay must complete with a hit ratio within a bounded
// distance of the reference, the killed node must be ejected and then
// re-admitted by health probing, per-node METRICS must reconcile with
// the router's own counters on the surviving nodes, ring placement must
// be byte-identical across independently built routers, and the router
// must not leak goroutines.
func TestChaosNodeChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test; skipped in -short")
	}
	bin := buildRavencached(t)
	tr := chaosTrace()

	// Reference run: same fleet shape, no chaos.
	refFleet := startFleet(t, bin, 3)
	refRouter, err := New(chaosRouterConfig(fleetAddrs(refFleet)))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := replayThroughRouter(refRouter, tr)
	if err != nil {
		t.Fatalf("reference replay: %v", err)
	}
	_ = refRouter.Close()
	if refRes.Stats.Requests != int64(tr.Len()) {
		t.Fatalf("reference replay completed %d/%d requests", refRes.Stats.Requests, tr.Len())
	}
	if ohr := refRes.Stats.OHR(); ohr <= 0.05 || ohr >= 0.95 {
		t.Fatalf("reference OHR %.3f too extreme to measure chaos error against", ohr)
	}

	// Chaos fleet: replay concurrently with a kill + restart.
	fleet := startFleet(t, bin, 3)
	addrs := fleetAddrs(fleet)
	baseGoroutines := runtime.NumGoroutine()
	r, err := New(chaosRouterConfig(addrs))
	if err != nil {
		t.Fatal(err)
	}

	// Ring determinism: an independently built router over the same
	// membership places every key identically.
	twin, err := New(Config{Nodes: addrs, Seed: 42, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint() != twin.Fingerprint() {
		t.Fatal("ring fingerprints differ across double build")
	}
	_ = twin.Close()

	victim := fleet[1]
	type replayOutcome struct {
		res *server.ReplayResult
		err error
	}
	done := make(chan replayOutcome, 1)
	go func() {
		res, err := replayThroughRouter(r, tr)
		done <- replayOutcome{res, err}
	}()

	// Wait for the replay to make headway, then SIGKILL the victim.
	waitFor := func(desc string, deadline time.Duration, cond func() bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for !cond() {
			if time.Now().After(end) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("replay to reach 1/3", 30*time.Second, func() bool {
		return r.Stats().Requests > int64(tr.Len()/3)
	})
	victim.kill(t)
	waitFor("victim ejection", 10*time.Second, func() bool {
		return r.NodeStates()[victim.addr] == Fallback
	})

	// Restart on the same address; the prober must re-admit it.
	victim.start(t, 1, 3)
	waitFor("victim recovery", 10*time.Second, func() bool {
		return r.NodeStates()[victim.addr] == Healthy
	})

	out := <-done
	if out.err != nil {
		t.Fatalf("chaos replay: %v", out.err)
	}
	res := out.res
	if res.Stats.Requests != int64(tr.Len()) {
		t.Fatalf("chaos replay completed %d/%d requests", res.Stats.Requests, tr.Len())
	}

	// Bounded error: losing one of three nodes' caches mid-replay (and
	// re-warming it) costs hit ratio, but the cluster tier must keep the
	// damage local — the surviving 2/3 of the keyspace keeps serving.
	if diff := math.Abs(res.Stats.OHR() - refRes.Stats.OHR()); diff > 0.15 {
		t.Errorf("chaos OHR %.4f deviates %.4f from reference %.4f (bound 0.15)",
			res.Stats.OHR(), diff, refRes.Stats.OHR())
	}
	if n := r.Metrics().Counter("router.failovers").Load(); n == 0 {
		t.Error("no failovers recorded during node churn")
	}

	// METRICS reconciliation on the surviving nodes: every op the
	// router counted against a node was received by it, and everything
	// beyond that is bounded by the router's own failure count for the
	// node (ops that died between send and reply). The killed node lost
	// its pre-kill counters, so it is excluded.
	for i, n := range fleet {
		if n == victim {
			continue
		}
		m := nodeMetricsSnapshot(t, n.addr)
		ops := r.Metrics().Counter(fmt.Sprintf("router.node%d.ops", i)).Load()
		fails := r.Metrics().Counter(fmt.Sprintf("router.node%d.failures", i)).Load()
		got := m["cache.requests"] + m["cache.sets"]
		if got < ops || got > ops+fails {
			t.Errorf("node %d (%s): cache served %d ops, router counted %d ok + %d failed",
				i, n.addr, got, ops, fails)
		}
		if m["server.pings"] == 0 {
			t.Errorf("node %d: no health probes arrived", i)
		}
	}

	// Shutdown: no leaked router goroutines.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("goroutines to settle", 10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseGoroutines+1
	})
}
