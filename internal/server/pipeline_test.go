package server

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/trace"
)

// TestTextPipeliningBurst writes many control lines in one raw write
// and checks that every reply comes back in order, that the counters
// reconcile, and that the server batched the replies into far fewer
// flushes than requests — the text side of pipelining, which the
// benchmark's "METRICS\nQUIT\n" probe rides.
func TestTextPipeliningBurst(t *testing.T) {
	srv := newTestServer(t, 1<<20)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 200
	if _, err := conn.Write([]byte(strings.Repeat("PING\nSTATS\n", n/2))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		want := "PONG\n"
		if i%2 == 1 {
			want = "STATS 0 0 0 0\n"
		}
		if line, err := r.ReadString('\n'); err != nil || line != want {
			t.Fatalf("reply %d: %q (err %v), want %q", i, line, err, want)
		}
	}

	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if m["server.pings"] != n/2 || m["server.requests_binary"] != 0 || m["cache.requests"] != 0 {
		t.Errorf("pings=%d requests_binary=%d cache.requests=%d, want %d/0/0",
			m["server.pings"], m["server.requests_binary"], m["cache.requests"], n/2)
	}
	// One write per drained burst, not one per reply: the whole burst
	// fits the read buffer, so this should be a handful of flushes.
	if f := m["server.flushes"]; f >= n/2 {
		t.Errorf("server.flushes = %d for %d pipelined requests; batching is not happening", f, n)
	}
}

// TestClientPipeline runs the client's windowed pipelining mode and
// reconciles its accounting with the server's.
func TestClientPipeline(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		srv := newTestServer(t, 1<<20)
		cl, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()

		const n = 500
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Key: trace.Key(i % 16), Size: 10, Time: int64(i + 1)}
			if i%10 == 9 {
				ops[i].Set = true
			}
		}
		st, err := cl.Pipeline(ops, 32)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != n {
			t.Errorf("Requests = %d, want %d", st.Requests, n)
		}
		if st.Hits == 0 || st.Stored == 0 {
			t.Errorf("degenerate run: hits=%d stored=%d", st.Hits, st.Stored)
		}
		if st.ReqPerSec() <= 0 || st.P99Ns <= 0 || st.P50Ns > st.P99Ns {
			t.Errorf("bad latency accounting: %+v", st)
		}
		sst := srv.Stats()
		if got := sst.Requests + sst.Sets; got != n {
			t.Errorf("server saw %d ops (%d gets + %d sets), want %d", got, sst.Requests, sst.Sets, n)
		}
		if int(sst.Hits) != st.Hits {
			t.Errorf("server hits %d != client hits %d", sst.Hits, st.Hits)
		}
		if f := srv.Metrics().Counter("server.flushes").Load(); f >= n/2 {
			t.Errorf("server.flushes = %d for %d requests at depth 32; batching is not happening", f, n)
		}
	})
}

// TestVclockRatchet is the regression test for policy time running
// backwards: explicit timestamps must ratchet the virtual clock so a
// later clockless request cannot be stamped before them.
func TestVclockRatchet(t *testing.T) {
	srv := newTestServer(t, 1<<20)
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Get(1, 10, 1000); err != nil { // explicit ts=1000
		t.Fatal(err)
	}
	if got := srv.vclock.Load(); got != 1000 {
		t.Fatalf("vclock after explicit ts=1000: %d", got)
	}
	if _, err := cl.Get(2, 10, -1); err != nil { // clockless: must tick past 1000
		t.Fatal(err)
	}
	if got := srv.vclock.Load(); got != 1001 {
		t.Errorf("vclock after clockless request: %d, want 1001", got)
	}
	if _, err := cl.Get(3, 10, 500); err != nil { // stale explicit ts must not rewind
		t.Fatal(err)
	}
	if got := srv.vclock.Load(); got != 1001 {
		t.Errorf("vclock rewound to %d by a stale explicit timestamp", got)
	}
}

// TestMetricsSingleReply pins the torn-snapshot bugfix: the METRICS
// reply must be built as one unit and sent through one write (one
// PreReply fault point), not one send per metric line.
func TestMetricsSingleReply(t *testing.T) {
	var preReplies atomic.Int64
	srv := newTestServer(t, 1<<20, func(c *Config) {
		c.Faults = &Faults{PreReply: func() { preReplies.Add(1) }}
	})
	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(m) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	if got := preReplies.Load(); got != 1 {
		t.Errorf("METRICS hit %d reply fault points, want 1 (one write per snapshot)", got)
	}
}
