package server

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"raven/internal/sim"
	"raven/internal/trace"
)

// TestCloseIdempotent: Close must be callable any number of times,
// from any number of goroutines, returning the first close's error —
// the pre-hardening version panicked on the second close(chan).
func TestCloseIdempotent(t *testing.T) {
	srv := newTestServer(t, 100)
	first := srv.Close()
	if second := srv.Close(); !errors.Is(second, first) && second != first {
		t.Errorf("second Close = %v, first = %v", second, first)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.Close()
		}()
	}
	wg.Wait() // reaching here without panic is the assertion
}

// TestSlowLorisIdleTimeout: a client that trickles bytes without ever
// completing a request line is reaped by the idle deadline — the
// deadline is armed per request, not per byte, so drip-feeding cannot
// hold a connection open.
func TestSlowLorisIdleTimeout(t *testing.T) {
	srv := newTestServer(t, 100, func(c *Config) { c.IdleTimeout = 50 * time.Millisecond })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Drip one byte every 10ms from a background goroutine; writes
	// start failing once the server closes the connection.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				if _, err := conn.Write([]byte("G")); err != nil {
					return
				}
			}
		}
	}()

	// The server may flush one ERR line for the partial token before
	// closing; drain until EOF and require it within a bounded window.
	// A byte the dripper sent just as the server closed makes the close
	// a reset instead: that is a reaped connection too.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 256)
	for {
		_, err := conn.Read(buf)
		if err == io.EOF || errors.Is(err, syscall.ECONNRESET) {
			break
		}
		if err != nil {
			t.Fatalf("want EOF from reaped connection, got %v", err)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("reap took %v, want well under 2s", d)
	}
	if n := srv.Metrics().Counter("server.conns_idle_closed").Load(); n == 0 {
		t.Error("idle close was not counted")
	}
}

// TestOversizedLineReply: a request line exceeding the 64 KiB scanner
// buffer gets an explicit "ERR line too long" reply (the old server
// silently killed the connection) and is counted.
func TestOversizedLineReply(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := make([]byte, maxLineBytes+1024)
	for i := range huge {
		huge[i] = 'A'
	}
	huge[len(huge)-1] = '\n'
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply := make([]byte, 256)
	n, err := conn.Read(reply)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if got := string(reply[:n]); !strings.HasPrefix(got, "ERR line too long") {
		t.Errorf("reply %q, want ERR line too long", got)
	}
	if c := srv.Metrics().Counter("server.line_too_long").Load(); c != 1 {
		t.Errorf("line_too_long = %d, want 1", c)
	}
}

// TestMaxConnsShedding: beyond MaxConns concurrent connections, new
// dials are refused with "ERR busy" and closed; a freed slot becomes
// usable again.
func TestMaxConnsShedding(t *testing.T) {
	srv := newTestServer(t, 1000, func(c *Config) { c.MaxConns = 2 })

	// Fill both slots (a Get round trip guarantees the handler is
	// registered, not just the TCP handshake done).
	var clients []*Client
	for i := 0; i < 2; i++ {
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(trace.Key(i), 10, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}

	// A burst of further dials must all be shed.
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("shed dial %d: read: %v", i, err)
		}
		if got := string(buf[:n]); !strings.HasPrefix(got, "ERR busy") {
			t.Fatalf("shed dial %d: reply %q, want ERR busy", i, got)
		}
		conn.Close()
	}
	if shed := srv.Metrics().Counter("server.conns_shed").Load(); shed != 5 {
		t.Errorf("conns_shed = %d, want 5", shed)
	}

	// Releasing a slot lets a new client in (handler teardown is
	// asynchronous after QUIT, so poll briefly).
	if err := clients[0].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl, err := Dial(srv.Addr())
		if err == nil {
			if _, gerr := cl.Get(99, 10, 100); gerr == nil {
				cl.Close()
				break
			}
			cl.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
	clients[1].Close()
}

// TestAcceptFaultBackoffBounded: induced accept errors must not spin
// the accept loop. During a 150ms fault window the exponential backoff
// allows only a handful of accept attempts; afterwards the server
// still serves. The pre-hardening loop would spin tens of thousands of
// times through the same window.
func TestAcceptFaultBackoffBounded(t *testing.T) {
	boom := errors.New("induced accept fault")
	var calls atomic.Int64
	faultUntil := time.Now().Add(150 * time.Millisecond)
	srv := newTestServer(t, 100, func(c *Config) {
		c.Faults = &Faults{AcceptErr: func() error {
			if time.Now().Before(faultUntil) {
				calls.Add(1)
				return boom
			}
			return nil
		}}
	})

	// The server must come back once the fault clears.
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		cl, err := Dial(srv.Addr())
		if err == nil {
			if _, gerr := cl.Get(1, 10, 1); gerr == nil {
				cl.Close()
				break
			}
			cl.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered from induced accept errors")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := calls.Load(); n > 30 {
		t.Errorf("accept loop retried %d times in 150ms; backoff is not engaging", n)
	}
	if m := srv.Metrics().Counter("server.accept_errors").Load(); m != calls.Load() {
		t.Errorf("accept_errors metric %d != injected %d", m, calls.Load())
	}
}

// TestDrainForceClose: Close must return within the drain bound even
// when a client holds its connection open forever.
func TestDrainForceClose(t *testing.T) {
	srv := newTestServer(t, 100, func(c *Config) { c.DrainTimeout = 100 * time.Millisecond })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.conn.Close()
	if _, err := cl.Get(1, 10, 1); err != nil { // handler now live, never QUITs
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if d := time.Since(start); d < 100*time.Millisecond || d > 3*time.Second {
		t.Errorf("Close took %v, want ~drain bound (100ms..3s)", d)
	}
}

// TestMetricsRoundTrip: the METRICS wire command returns a snapshot
// whose totals reconcile with the server's own statistics. The snapshot
// comes over a text connection of its own, beside the binary client.
func TestMetricsRoundTrip(t *testing.T) {
	srv := newTestServer(t, 100)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i, key := range []trace.Key{1, 2, 1} { // 2 misses, 1 hit
		if _, err := cl.Get(key, 10, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := FetchMetrics(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		"cache.requests":              3,
		"cache.hits":                  1,
		"cache.admissions":            2,
		"cache.used_bytes":            20,
		"cache.objects":               2,
		"server.conns_accepted":       2,
		"server.conns_active":         2,
		"server.conns_binary":         1,
		"server.conns_text":           1,
		"server.get_latency_ns.count": 3,
	}
	for name, want := range checks {
		got, ok := m[name]
		if !ok {
			t.Errorf("metric %q missing from METRICS reply (got %d entries)", name, len(m))
			continue
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if m["server.get_latency_ns.p99"] <= 0 {
		t.Error("latency p99 not populated")
	}
	st := srv.Stats()
	if st.Requests != m["cache.requests"] || st.Hits != m["cache.hits"] {
		t.Errorf("METRICS (%d req, %d hits) disagrees with Stats (%d, %d)",
			m["cache.requests"], m["cache.hits"], st.Requests, st.Hits)
	}
}

// replayUnderReadFaults replays a 300-request trace against a server
// whose every 7th read fails, with a client that retries through it.
func replayUnderReadFaults(t *testing.T) (*Server, *ReplayResult) {
	t.Helper()
	var reads atomic.Int64
	srv := newTestServer(t, 500, func(c *Config) {
		c.Faults = &Faults{ReadErr: func() bool { return reads.Add(1)%7 == 0 }}
	})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.Timeout = 5 * time.Second
	cl.MaxRetries = 8
	cl.RetryBackoff = time.Millisecond

	tr := trace.Synthetic(trace.SynthConfig{Objects: 50, Requests: 300, Interarrival: trace.Poisson, Seed: 3})
	res, err := cl.Replay(tr, 0, sim.CDNModel())
	if err != nil {
		t.Fatal(err)
	}
	return srv, res
}

// TestReplaySurvivesReadFaults: with every 7th server-side read
// failing, Replay must still complete via reconnect-with-backoff.
func TestReplaySurvivesReadFaults(t *testing.T) {
	srv, res := replayUnderReadFaults(t)
	if res.Stats.Requests != 300 {
		t.Errorf("requests %d, want 300", res.Stats.Requests)
	}
	if res.Reconnects == 0 {
		t.Error("expected reconnects under injected read faults")
	}
	// Every successful client round trip is exactly one cache request.
	if st := srv.Stats(); st.Requests != res.Stats.Requests {
		t.Errorf("server processed %d, client completed %d", st.Requests, res.Stats.Requests)
	}
}
