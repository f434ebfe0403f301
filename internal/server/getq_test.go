package server

import (
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/trace"
)

// TestPingBothProtocols: PING answers PONG on text and binary
// connections, is counted in server.pings, and never contributes to
// the request counters health probing must not skew.
func TestPingBothProtocols(t *testing.T) {
	srv := newTestServer(t, 100)

	txt, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Close()
	bin := dialBinary(t, srv)

	for i := 0; i < 3; i++ {
		if err := txt.Ping(); err != nil {
			t.Fatalf("text ping %d: %v", i, err)
		}
		if err := bin.Ping(); err != nil {
			t.Fatalf("binary ping %d: %v", i, err)
		}
	}
	// One real request so the counters are provably live.
	if _, err := bin.Get(1, 10, 1); err != nil {
		t.Fatal(err)
	}
	m, err := txt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["server.pings"] != 6 {
		t.Errorf("server.pings = %d, want 6", m["server.pings"])
	}
	if m["server.requests_binary"] != 1 || m["server.requests_text"] != 0 {
		t.Errorf("requests: text=%d binary=%d, want 0/1 (pings must not count)",
			m["server.requests_text"], m["server.requests_binary"])
	}
	if m["cache.requests"] != 1 {
		t.Errorf("cache.requests = %d, want 1", m["cache.requests"])
	}
}

// TestGetQuietRoundTrip: a quiet get misses silently (only the barrier
// PONG comes back), hits with a key-echoing HitQ frame, and counts as
// a normal cache request on the server.
func TestGetQuietRoundTrip(t *testing.T) {
	srv := newTestServer(t, 100)
	cl := dialBinary(t, srv)

	hit, err := cl.GetQuiet(7, 10, 1)
	if err != nil || hit {
		t.Fatalf("cold quiet GET: hit=%v err=%v", hit, err)
	}
	hit, err = cl.GetQuiet(7, 10, 2)
	if err != nil || !hit {
		t.Fatalf("warm quiet GET: hit=%v err=%v", hit, err)
	}
	// The connection stays framed: a regular op afterwards works.
	hit, err = cl.Get(7, 10, 3)
	if err != nil || !hit {
		t.Fatalf("GET after quiet ops: hit=%v err=%v", hit, err)
	}
	st := srv.Stats()
	if st.Requests != 3 || st.Hits != 2 {
		t.Errorf("stats %+v, want 3 requests / 2 hits", st)
	}
}

// TestPipelineQuietOps drives quiet gets through Pipeline: an all-miss
// quiet run (resolved purely by the injected PING barrier), a warm
// run with every reply a sparse HitQ, and a mixed stream where quiet
// misses are resolved by the next loud reply.
func TestPipelineQuietOps(t *testing.T) {
	srv := newTestServer(t, 10_000)
	cl := dialBinary(t, srv)

	quiet := func(keys ...trace.Key) []Op {
		ops := make([]Op, len(keys))
		for i, k := range keys {
			ops[i] = Op{Quiet: true, Key: k, Size: 10, Time: -1}
		}
		return ops
	}

	// Cold all-quiet window: every op misses, so no reply frames exist
	// at all — the PING barrier is the only thing unblocking the reader.
	st, err := cl.Pipeline(quiet(1, 2, 3, 4, 5, 6, 7, 8), 32)
	if err != nil {
		t.Fatalf("cold quiet pipeline: %v", err)
	}
	if st.Requests != 8 || st.Hits != 0 {
		t.Errorf("cold quiet run: %d requests / %d hits, want 8/0", st.Requests, st.Hits)
	}

	// Warm run: all hits, each matched by its echoed key (duplicate
	// keys in flight must match in order).
	st, err = cl.Pipeline(quiet(1, 2, 2, 3, 4, 5, 1), 4)
	if err != nil {
		t.Fatalf("warm quiet pipeline: %v", err)
	}
	if st.Requests != 7 || st.Hits != 7 {
		t.Errorf("warm quiet run: %d requests / %d hits, want 7/7", st.Requests, st.Hits)
	}

	// Mixed stream: quiet misses ride in front of loud ops and are
	// resolved by the loud replies, no barrier needed mid-stream.
	ops := []Op{
		{Quiet: true, Key: 100, Size: 10, Time: -1}, // cold → silent miss
		{Set: true, Key: 101, Size: 10, Time: -1},   // STORED resolves it
		{Quiet: true, Key: 101, Size: 10, Time: -1}, // hit → HitQ
		{Quiet: true, Key: 102, Size: 10, Time: -1}, // cold → silent miss
		{Key: 1, Size: 10, Time: -1},                // loud hit resolves it
	}
	st, err = cl.Pipeline(ops, 8)
	if err != nil {
		t.Fatalf("mixed pipeline: %v", err)
	}
	if st.Requests != 5 || st.Hits != 2 || st.Stored != 1 {
		t.Errorf("mixed run: %+v, want 5 requests / 2 hits / 1 stored", st)
	}
}

// TestPipelineQuietMatchesLoud: the same deterministic op stream must
// produce identical hit accounting whether gets are quiet or loud —
// GETQ only changes reply bytes, never semantics.
func TestPipelineQuietMatchesLoud(t *testing.T) {
	const n = 600
	mkOps := func(quiet bool) []Op {
		r := rand.New(rand.NewSource(11))
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Quiet: quiet, Key: trace.Key(r.Intn(40)), Size: 8, Time: int64(i + 1)}
		}
		return ops
	}

	for _, depth := range []int{1, 7, 64} {
		srvLoud := newTestServer(t, 200)
		srvQuiet := newTestServer(t, 200)
		loud := dialBinary(t, srvLoud)
		quietCl := dialBinary(t, srvQuiet)

		stLoud, err := loud.Pipeline(mkOps(false), depth)
		if err != nil {
			t.Fatalf("depth %d loud: %v", depth, err)
		}
		stQuiet, err := quietCl.Pipeline(mkOps(true), depth)
		if err != nil {
			t.Fatalf("depth %d quiet: %v", depth, err)
		}
		if stLoud.Hits != stQuiet.Hits || stLoud.Requests != stQuiet.Requests {
			t.Errorf("depth %d: loud %d/%d vs quiet %d/%d (hits/requests)",
				depth, stLoud.Hits, stLoud.Requests, stQuiet.Hits, stQuiet.Requests)
		}
		if a, b := srvLoud.Stats(), srvQuiet.Stats(); a.Requests != b.Requests || a.Hits != b.Hits {
			t.Errorf("depth %d: server stats diverge: %+v vs %+v", depth, a, b)
		}
	}
}

// TestReplaySurvivesReadFaultsBinary mirrors the text-protocol
// read-fault replay test on a binary connection: with every 7th
// server-side read failing, the reconnect-with-backoff resend path
// must carry a binary Replay to completion too.
func TestReplaySurvivesReadFaultsBinary(t *testing.T) {
	var reads atomic.Int64
	srv := newTestServer(t, 500, func(c *Config) {
		c.Faults = &Faults{ReadErr: func() bool { return reads.Add(1)%7 == 0 }}
	})
	cl, err := DialBinary(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 5 * time.Second
	cl.MaxRetries = 8
	cl.RetryBackoff = time.Millisecond

	tr := trace.Synthetic(trace.SynthConfig{Objects: 50, Requests: 300, Interarrival: trace.Poisson, Seed: 3})
	res, err := cl.Replay(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 300 {
		t.Errorf("requests %d, want 300", res.Requests)
	}
	if res.Reconnects == 0 {
		t.Error("expected reconnects under injected read faults")
	}
	if st := srv.Stats(); st.Requests != int64(res.Requests) {
		t.Errorf("server processed %d, client completed %d", st.Requests, res.Requests)
	}
}

// TestBinaryStressFaultMatrix is the binary twin of the text stress
// test: concurrent pipelined binary clients under injected read faults
// and pre-reply stalls. Totals must reconcile and no client may desync.
func TestBinaryStressFaultMatrix(t *testing.T) {
	const (
		clients      = 20
		opsPerConn   = 200
		readFaultMod = 97 // sparse: a faulted conn loses its whole pipeline batch
	)
	var reads atomic.Int64
	var stalls atomic.Int64
	srv := newTestServer(t, 50_000, func(c *Config) {
		c.IdleTimeout = 2 * time.Second
		c.DrainTimeout = time.Second
		c.Faults = &Faults{
			ReadErr: func() bool { return reads.Add(1)%readFaultMod == 0 },
			PreReply: func() {
				if stalls.Add(1)%251 == 0 {
					time.Sleep(time.Millisecond)
				}
			},
		}
	})

	var (
		okOps  atomic.Int64
		okHits atomic.Int64
		wg     sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A pipelined batch dies wholesale when its connection takes
			// an injected fault, so clients retry per-batch on a fresh
			// connection, mirroring what a resilient edge client does.
			r := rand.New(rand.NewSource(int64(c)))
			pendingOps := make([]Op, 0, opsPerConn)
			for i := 0; i < opsPerConn; i++ {
				pendingOps = append(pendingOps, Op{
					Quiet: r.Intn(3) == 0,
					Key:   trace.Key(c*64 + r.Intn(32)),
					Size:  16,
					Time:  -1,
				})
			}
			for attempt := 0; attempt < 20 && len(pendingOps) > 0; attempt++ {
				cl, err := DialBinary(srv.Addr())
				if err != nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				cl.Timeout = 5 * time.Second
				st, err := cl.Pipeline(pendingOps, 16)
				cl.Close()
				okOps.Add(int64(st.Requests))
				okHits.Add(int64(st.Hits + st.Stored))
				if err == nil {
					pendingOps = nil
					break
				}
				// Resend only the unresolved tail; resolved ops were
				// fully served and counted.
				pendingOps = pendingOps[st.Requests:]
				time.Sleep(5 * time.Millisecond)
			}
			if len(pendingOps) > 0 {
				t.Errorf("client %d: %d ops never completed", c, len(pendingOps))
			}
		}(c)
	}
	wg.Wait()

	// Reconcile: every resolved client op was processed exactly once.
	txt, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Close()
	m, err := txt.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["server.read_errors"] == 0 {
		t.Error("no injected binary read faults observed")
	}
	if got, want := m["server.requests_binary"], okOps.Load(); got < want {
		// The server may have processed requests whose replies were
		// lost to a fault (client does not count those), never fewer.
		t.Errorf("server served %d binary requests, clients resolved %d", got, want)
	}
	if got, want := m["cache.hits"], okHits.Load(); got < want {
		t.Errorf("server counted %d hits, clients saw %d", got, want)
	}
}

// TestBinaryErrorClosesWithoutDesync: an error status (>= 0x80)
// terminates only the offending connection — a pipelined peer on
// another connection keeps its framing and completes unperturbed.
func TestBinaryErrorClosesWithoutDesync(t *testing.T) {
	srv := newTestServer(t, 10_000)

	// Peer: a long pipelined run straddling the hostile connection.
	done := make(chan error, 1)
	peerOps := make([]Op, 2000)
	for i := range peerOps {
		peerOps[i] = Op{Key: trace.Key(i % 50), Size: 8, Time: -1, Quiet: i%4 == 0}
	}
	go func() {
		cl, err := DialBinary(srv.Addr())
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		cl.Timeout = 10 * time.Second
		st, err := cl.Pipeline(peerOps, 64)
		if err == nil && st.Requests != len(peerOps) {
			err = &net.AddrError{Err: "short pipeline", Addr: srv.Addr()}
		}
		done <- err
	}()

	// Hostile client: a good frame, then a bad-magic frame mid-stream.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := append(rawFrame(binMagicReq, binVerbGet, 9001, 10, 1),
		rawFrame(0x13, binVerbGet, 9001, 10, 2)...)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	status, _ := readRawReply(t, conn) // the good GET's reply
	if status != binStatusMiss && status != binStatusHit {
		t.Fatalf("first reply status 0x%02x", status)
	}
	status, _ = readRawReply(t, conn) // the error reply
	if status < binStatusErr {
		t.Fatalf("bad frame answered with non-error status 0x%02x", status)
	}
	// After the error the server must close; the read drains to EOF.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}

	if err := <-done; err != nil {
		t.Fatalf("pipelined peer was perturbed: %v", err)
	}
	if n := srv.Metrics().Counter("server.bad_requests").Load(); n == 0 {
		t.Error("bad frame was not counted")
	}
}

// TestQuietGetsSameKey: two quiet gets for one key in one burst. The
// first misses (and admits the key), the second hits, and the server
// echoes the key once — which names the second only because the client
// keeps the two apart with a barrier of its own.
func TestQuietGetsSameKey(t *testing.T) {
	srv := newTestServer(t, 100)
	cl := dialBinary(t, srv)
	ops := []Op{
		{Quiet: true, Key: 7, Size: 10, Time: 1},
		{Quiet: true, Key: 8, Size: 10, Time: 2},
		{Quiet: true, Key: 7, Size: 10, Time: 3},
		{Quiet: true, Key: 7, Size: 10, Time: 4},
	}
	res := make([]bool, len(ops))
	if err := cl.Send(ops); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Recv(ops, res); err != nil || n != len(ops) {
		t.Fatalf("%d of %d settled: %v", n, len(ops), err)
	}
	if want := []bool{false, false, true, true}; !reflect.DeepEqual(res, want) {
		t.Errorf("results %v, want %v", res, want)
	}
	st, err := cl.Pipeline(ops, 4)
	if err != nil || st.Hits != 4 {
		t.Errorf("pipelined rerun: %d hits (%v), want 4 (the first pass admitted both keys)", st.Hits, err)
	}
}
