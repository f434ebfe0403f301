package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/trace"
)

// newTestServer starts an LRU-backed server; mods adjust the Config
// before launch. Tests use a short drain bound so a leaked connection
// cannot stall cleanup.
func newTestServer(t *testing.T, capacity int64, mods ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Capacity:     capacity,
		NewPolicy:    cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: capacity})),
		DrainTimeout: time.Second,
	}
	for _, m := range mods {
		m(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// retryClient drives a server through faults: a failed round trip
// closes the connection, redials after an exponential backoff (from
// backoff, doubling up to 1 s) and resends, up to retries times. A
// request the server sheds with "ERR busy" lands here too. reconnects
// counts the redials that connected.
type retryClient struct {
	cl         *Client
	addr       string
	timeout    time.Duration
	retries    int
	backoff    time.Duration
	reconnects int64
}

// dialRetry dials addr for a retryClient whose round trips each run
// under timeout.
func dialRetry(addr string, timeout time.Duration, retries int, backoff time.Duration) (*retryClient, error) {
	cl, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	cl.Timeout = timeout
	return &retryClient{cl: cl, addr: addr, timeout: timeout, retries: retries, backoff: backoff}, nil
}

// Close closes the current connection.
func (c *retryClient) Close() error { return c.cl.Close() }

// do runs op, reconnecting and resending on failure.
func (c *retryClient) do(op Op) (bool, error) {
	ok, err := c.cl.roundTrip(op)
	backoff := c.backoff
	for attempt := 0; err != nil && attempt < c.retries; attempt++ {
		time.Sleep(backoff)
		backoff = min(2*backoff, time.Second)
		_ = c.cl.conn.Close()
		cl, derr := Dial(c.addr)
		if derr != nil {
			err = derr
			continue
		}
		cl.Timeout = c.timeout
		c.cl = cl
		c.reconnects++
		ok, err = c.cl.roundTrip(op)
	}
	if err != nil {
		return false, fmt.Errorf("giving up after %d retries: %w", c.retries, err)
	}
	return ok, nil
}

// metricsUnderFaults fetches srv's METRICS when injected read faults may
// hit the metrics connection too, retrying a bounded number of times: a
// single fetch flaked about one run in ten.
func metricsUnderFaults(t *testing.T, srv *Server) map[string]int64 {
	t.Helper()
	for attempt := 0; ; attempt++ {
		m, err := FetchMetrics(srv.Addr())
		if err == nil {
			return m
		}
		if attempt >= 10 {
			t.Fatalf("metrics fetch kept failing: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerHitMissOverTCP(t *testing.T) {
	srv := newTestServer(t, 100)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hit, err := cl.Get(1, 10, 1)
	if err != nil || hit {
		t.Fatalf("first GET: hit=%v err=%v", hit, err)
	}
	hit, err = cl.Get(1, 10, 2)
	if err != nil || !hit {
		t.Fatalf("second GET: hit=%v err=%v", hit, err)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Hits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestServerEvictsUnderPressure(t *testing.T) {
	srv := newTestServer(t, 20)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := trace.Key(1); k <= 5; k++ {
		if _, err := cl.Get(k, 10, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions")
	}
}

// TestServerRejectsBadCommands: on a text connection anything but the
// control verbs, well-formed GET and SET lines included, is answered
// ERR and the connection goes on.
func TestServerRejectsBadCommands(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for _, tc := range []struct{ line, reply string }{
		{"GET 1 10", `ERR unknown command "GET"`},
		{"SET 1 10 5", `ERR unknown command "SET"`},
		{"BOGUS", `ERR unknown command "BOGUS"`},
		{"PING", "PONG"},
	} {
		if _, err := io.WriteString(conn, tc.line+"\n"); err != nil {
			t.Fatal(err)
		}
		if reply, err := r.ReadString('\n'); err != nil || reply != tc.reply+"\n" {
			t.Errorf("line %q got reply %q (err %v), want %q", tc.line, reply, err, tc.reply)
		}
	}
	if st := srv.Stats(); st.Requests != 0 || st.Sets != 0 {
		t.Errorf("a text line reached the cache: %+v", st)
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 10}); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := New(Config{NewPolicy: cache.SingleFactory(policy.MustNew("lru", policy.Options{}))}); err == nil {
		t.Error("zero capacity should fail")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := newTestServer(t, 1000)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			cl, err := Dial(srv.Addr())
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 500; i++ {
				if _, err := cl.Get(trace.Key(i%50), 10, int64(w*1000+i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Requests != 2000 {
		t.Errorf("requests %d, want 2000", st.Requests)
	}
}
