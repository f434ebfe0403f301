package server

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/sim"
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

func TestClientReplayMeasures(t *testing.T) {
	srv := newTestServer(t, 50)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tr := trace.Synthetic(trace.SynthConfig{Objects: 100, Requests: 2000, Interarrival: trace.Poisson, Seed: 1})
	model := sim.InMemoryModel()
	res, err := cl.Replay(tr, 5, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Requests != 2000 {
		t.Errorf("requests %d", res.Stats.Requests)
	}
	if ohr := res.Stats.OHR(); ohr <= 0 || ohr >= 1 {
		t.Errorf("implausible OHR %v", ohr)
	}
	if len(res.Latency) != 2000 || res.MaxWire <= 0 {
		t.Fatalf("latency not measured: %d samples, max wire %v", len(res.Latency), res.MaxWire)
	}
	for i, d := range res.Latency {
		if floor := model.ServiceTime(true, tr.Reqs[i].Size); d <= floor {
			t.Fatalf("request %d: latency %v not above the model's hit time %v", i, d, floor)
		}
	}
	if len(res.Curve) < 4 {
		t.Errorf("curve points %d", len(res.Curve))
	}
	st := srv.Stats()
	if st.Hits != res.Stats.Hits {
		t.Errorf("server hits %d != client hits %d", st.Hits, res.Stats.Hits)
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
