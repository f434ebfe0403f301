package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/trace"
)

// dialClient returns a client against srv, closed at cleanup.
func dialClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestBinaryGetSetRoundTrip(t *testing.T) {
	srv := newTestServer(t, 100)
	cl := dialClient(t, srv)

	hit, err := cl.Get(1, 10, 1)
	if err != nil || hit {
		t.Fatalf("first GET: hit=%v err=%v", hit, err)
	}
	hit, err = cl.Get(1, 10, 2)
	if err != nil || !hit {
		t.Fatalf("second GET: hit=%v err=%v", hit, err)
	}
	stored, err := cl.Set(2, 20, 3)
	if err != nil || !stored {
		t.Fatalf("SET: stored=%v err=%v", stored, err)
	}
	hit, err = cl.Get(2, 20, binNoTime) // clockless request on the same conn
	if err != nil || !hit {
		t.Fatalf("GET after SET: hit=%v err=%v", hit, err)
	}
	st := srv.Stats()
	if st.Requests != 3 || st.Hits != 2 {
		t.Errorf("stats %+v", st)
	}

	// The protocol sniff must attribute the client to the binary side,
	// and the METRICS connection to the text side.
	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if m["server.conns_binary"] != 1 || m["server.requests_binary"] != 4 || m["server.conns_text"] != 1 {
		t.Errorf("counters: conns_binary=%d requests_binary=%d conns_text=%d, want 1/4/1",
			m["server.conns_binary"], m["server.requests_binary"], m["server.conns_text"])
	}
	if _, ok := m["server.requests_text"]; ok {
		t.Error("server.requests_text is exported, but text carries no GET/SET")
	}
}

// rawFrame builds one request frame with arbitrary field values.
func rawFrame(magic, verb byte, key, size, ts uint64) []byte {
	b := make([]byte, binReqLen)
	b[0] = magic
	b[1] = verb
	binary.LittleEndian.PutUint64(b[2:10], key)
	binary.LittleEndian.PutUint64(b[10:18], size)
	binary.LittleEndian.PutUint64(b[18:26], ts)
	return b
}

// readRawReply reads one reply frame from conn.
func readRawReply(t *testing.T, conn net.Conn) (status byte, size int64) {
	t.Helper()
	var rep [binRespLen]byte
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, rep[:]); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if rep[0] != binMagicResp {
		t.Fatalf("reply magic 0x%02x", rep[0])
	}
	return rep[1], int64(binary.LittleEndian.Uint64(rep[2:10]))
}

// TestBinaryHostileFrames sends malformed frames and checks that each
// one is answered with an error status (or a clean close), is counted
// in server.bad_requests without reaching the cache, and never takes the
// server down: a follow-up connection must still be served.
func TestBinaryHostileFrames(t *testing.T) {
	srv := newTestServer(t, 100)
	badRequests := srv.Metrics().Counter("server.bad_requests")

	cases := []struct {
		name  string
		frame []byte
		want  byte // expected error status; 0 means expect-close-only
	}{
		{"bad verb", rawFrame(binMagicReq, 0x7f, 1, 10, 1), binStatusBadVerb},
		{"unassigned verb 0x04", rawFrame(binMagicReq, 0x04, 1, 10, 1), binStatusBadVerb},
		{"zero size", rawFrame(binMagicReq, binVerbGet, 1, 0, 1), binStatusBadFrame},
		{"negative size", rawFrame(binMagicReq, binVerbGet, 1, math.MaxUint64, 1), binStatusBadFrame},
		{"time below -1", rawFrame(binMagicReq, binVerbSet, 1, 10, math.MaxUint64-4), binStatusBadFrame},
		{"bad magic mid-stream", append(rawFrame(binMagicReq, binVerbGet, 1, 10, 1),
			rawFrame(0x99, binVerbGet, 1, 10, 1)...), binStatusBadFrame},
		{"truncated header", rawFrame(binMagicReq, binVerbGet, 1, 10, 1)[:10], 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bad, served := badRequests.Load(), srv.Stats().Requests
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			if tc.want == 0 {
				// A truncated frame can only be detected at close.
				_ = conn.(*net.TCPConn).CloseWrite()
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf, _ := io.ReadAll(conn) // server must close after an error
			if tc.want != 0 {
				// Skip any valid replies that preceded the bad frame.
				if len(buf) < binRespLen || len(buf)%binRespLen != 0 {
					t.Fatalf("reply bytes = %d, want multiple of %d", len(buf), binRespLen)
				}
				last := buf[len(buf)-binRespLen:]
				if last[0] != binMagicResp || last[1] != tc.want {
					t.Errorf("last reply = magic 0x%02x status 0x%02x, want status 0x%02x", last[0], last[1], tc.want)
				}
			} else if len(buf) != 0 {
				t.Errorf("unexpected %d reply bytes for a truncated frame", len(buf))
			}
			// Only the valid GETs in front of the bad frame are cache ops.
			valid, counted := int64(max(len(buf)/binRespLen-1, 0)), int64(0)
			if tc.want != 0 {
				counted = 1
			}
			if got := srv.Stats().Requests - served; got != valid {
				t.Errorf("%d requests reached the cache, want %d", got, valid)
			}
			if got := badRequests.Load() - bad; got != counted {
				t.Errorf("server.bad_requests moved by %d, want %d", got, counted)
			}
		})
	}

	// Giant (but positive) sizes must be handled, not crash: the cache
	// rejects an object larger than its capacity.
	t.Run("giant size", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(rawFrame(binMagicReq, binVerbSet, 7, 1<<62, 1)); err != nil {
			t.Fatal(err)
		}
		status, size := readRawReply(t, conn)
		if status != binStatusNotStored || size != 1<<62 {
			t.Errorf("giant SET: status=0x%02x size=%d", status, size)
		}
	})

	// The server must still be healthy after all of the above.
	cl := dialClient(t, srv)
	if _, err := cl.Get(99, 5, binNoTime); err != nil {
		t.Fatalf("server unhealthy after hostile frames: %v", err)
	}
}

// TestBinaryNegativeTimeRejected: time == -1 means clockless, anything
// more negative is malformed and must not fall back to the virtual
// clock.
func TestBinaryNegativeTimeRejected(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawFrame(binMagicReq, binVerbGet, 1, 10, uint64(math.MaxUint64-4))); err != nil { // ts = -5
		t.Fatal(err)
	}
	status, _ := readRawReply(t, conn)
	if status != binStatusBadFrame {
		t.Errorf("ts=-5 status = 0x%02x, want 0x%02x", status, binStatusBadFrame)
	}
	if n := srv.Stats().Requests; n != 0 {
		t.Errorf("malformed frame reached the cache: requests=%d", n)
	}
}

// clockTap records the time of every request its policy sees.
type clockTap struct {
	cache.Policy
	mu    sync.Mutex
	times []int64
}

func (p *clockTap) seen(req cache.Request) {
	p.mu.Lock()
	p.times = append(p.times, req.Time)
	p.mu.Unlock()
}

func (p *clockTap) OnHit(req cache.Request)  { p.seen(req); p.Policy.OnHit(req) }
func (p *clockTap) OnMiss(req cache.Request) { p.seen(req); p.Policy.OnMiss(req) }

// TestBinaryTimeAboveBoundRejected: a time above binMaxTime is
// malformed. A GET at math.MaxInt64 that the server took would ratchet
// the virtual clock there, and the clockless requests after it would
// wrap policy time negative.
func TestBinaryTimeAboveBoundRejected(t *testing.T) {
	tap := &clockTap{Policy: policy.MustNew("lru", policy.Options{Capacity: 100})}
	srv := newTestServer(t, 100, func(c *Config) { c.NewPolicy = cache.SingleFactory(tap) })
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawFrame(binMagicReq, binVerbGet, 1, 10, math.MaxInt64)); err != nil {
		t.Fatal(err)
	}
	if status, _ := readRawReply(t, conn); status != binStatusBadFrame {
		t.Errorf("ts=MaxInt64 status = 0x%02x, want 0x%02x", status, binStatusBadFrame)
	}
	cl := dialClient(t, srv)
	for k := trace.Key(2); k < 6; k++ {
		if _, err := cl.Get(k, 10, binNoTime); err != nil {
			t.Fatal(err)
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.times) != 4 {
		t.Fatalf("the policy saw %d requests, want the 4 clockless GETs", len(tap.times))
	}
	for i, ts := range tap.times {
		if ts < 0 || i > 0 && ts <= tap.times[i-1] {
			t.Fatalf("the policy saw times %v; want increasing and non-negative", tap.times)
		}
	}
}

// TestBinaryFrameSplitAcrossReads trickles one frame a byte at a time;
// the framing layer must reassemble it into one request.
func TestBinaryFrameSplitAcrossReads(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := rawFrame(binMagicReq, binVerbSet, 42, 10, 1)
	for _, b := range frame {
		if _, err := conn.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	status, size := readRawReply(t, conn)
	if status != binStatusStored || size != 10 {
		t.Errorf("split SET: status=0x%02x size=%d", status, size)
	}
}

// FuzzBinaryFrames throws arbitrary bytes at a live server. Whatever
// arrives — hostile frames, random text, protocol switches mid-stream
// — the server must answer or close without panicking, and must stay
// healthy for the next connection.
func FuzzBinaryFrames(f *testing.F) {
	cfg := Config{
		Capacity:     1 << 20,
		NewPolicy:    cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: 1 << 20})),
		DrainTimeout: time.Second,
		idle:         200 * time.Millisecond,
	}
	srv, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	f.Add(rawFrame(binMagicReq, binVerbGet, 1, 10, 1))
	f.Add(rawFrame(binMagicReq, binVerbSet, 2, 20, uint64(math.MaxUint64))) // ts = -1
	f.Add(rawFrame(binMagicReq, binVerbGet, 1, 10, math.MaxInt64))          // ts above binMaxTime
	f.Add(rawFrame(binMagicReq, binVerbQuit, 0, 0, 0))
	f.Add(rawFrame(binMagicReq, 0xff, 1, 1, 1))
	f.Add(rawFrame(binMagicReq, 0x04, 1, 10, 1)) // unassigned verb
	f.Add(rawFrame(binMagicReq, binVerbGet, 1, math.MaxUint64, 1))
	f.Add(rawFrame(binMagicReq, binVerbGet, 1, 10, 1)[:7]) // truncated
	f.Add([]byte{binMagicReq})
	f.Add([]byte("GET 1 10\nMETRICS\n"))
	f.Add(append([]byte("GET 1 10\n"), rawFrame(binMagicReq, binVerbGet, 1, 10, 1)...))
	f.Add(bytes.Repeat(rawFrame(binMagicReq, binVerbGet, 3, 30, 5), 16)) // pipelined burst

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial:", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		_, _ = conn.Write(data)
		_ = conn.(*net.TCPConn).CloseWrite()
		_, _ = io.Copy(io.Discard, conn) // drain whatever the server says
	})
}

// TestServingPathAllocFree pins the zero-allocation budget of the
// serving path: with the read and write deadlines armed as served and
// buffers warmed, a GET hit and a same-size SET must not allocate — on
// the server or the client side (AllocsPerRun counts process-wide
// mallocs, and the handler goroutine runs within the measured window).
// It holds for LRU, and for a Raven whose fits go to a trainer, as
// ravencached's do: the trainer's first fit installed, and a second one
// outstanding, which every request checks for.
func TestServingPathAllocFree(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		srv := newTestServer(t, 1<<20)
		servingAllocFree(t, dialClient(t, srv), binNoTime)
	})
	t.Run("raven-trainer", func(t *testing.T) {
		tr := nn.NewTrainer()
		defer tr.Close()
		ro := &obs.RavenObs{}
		srv := newTestServer(t, 1<<20, func(c *Config) {
			c.NewPolicy = cache.SingleFactory(policy.MustNew("raven", policy.Options{
				Capacity: 1 << 20, TrainWindow: 1000, Obs: ro,
				Raven: &core.Config{
					Trainer:         tr,
					MaxTrainObjects: 50,
					Net:             nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
					Train:           nn.TrainConfig{MaxEpochs: 2, Patience: 1},
				},
			}))
		})
		ro.Register(srv.Metrics(), "raven")
		cl := dialClient(t, srv)
		set := func(from, to int64) {
			for ts := from; ts < to; ts++ {
				if _, err := cl.Set(trace.Key(ts%100), 128, ts); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The request at 1000 hands the first window to the trainer; a
		// later request installs its fit once it is done.
		set(0, 1001)
		deadline := time.Now().Add(time.Minute)
		for {
			m, err := FetchMetrics(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if m["raven.train_epochs"] > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no fit installed within a minute")
			}
			time.Sleep(time.Millisecond)
			set(1000, 1001)
		}
		// A closed trainer never runs the second window's fit, so it stays
		// outstanding. The measured requests all come at 2000: no window
		// closes while they run.
		tr.Close()
		set(1001, 2001)
		servingAllocFree(t, cl, 2000)
	})
}

// servingAllocFree checks that a GET hit and a same-size SET at time ts
// allocate nothing once warmed up.
func servingAllocFree(t *testing.T, cl *Client, ts int64) {
	const key, size = trace.Key(7), int64(128)
	if _, err := cl.Set(key, size, ts); err != nil {
		t.Fatal(err)
	}
	// Warm up both paths: grow client scratch, fault in bufio pages.
	for i := 0; i < 32; i++ {
		if _, err := cl.Get(key, size, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Set(key, size, ts); err != nil {
			t.Fatal(err)
		}
	}

	avg := testing.AllocsPerRun(500, func() {
		hit, err := cl.Get(key, size, ts)
		if err != nil || !hit {
			t.Fatalf("GET: hit=%v err=%v", hit, err)
		}
	})
	if avg != 0 {
		t.Errorf("GET hit allocates %.2f times per op; want 0", avg)
	}

	avg = testing.AllocsPerRun(500, func() {
		stored, err := cl.Set(key, size, ts)
		if err != nil || !stored {
			t.Fatalf("SET: stored=%v err=%v", stored, err)
		}
	})
	if avg != 0 {
		t.Errorf("same-size SET allocates %.2f times per op; want 0", avg)
	}
}

// TestBurstServingAllocFree extends the zero-allocation budget to the
// pipelined engine path: a 32-frame burst of GETs and SETs over a
// 4-shard engine, served as one ServeBatch, allocates
// nothing on the server or the client.
func TestBurstServingAllocFree(t *testing.T) {
	const shards = 4
	f, err := policy.Lookup("lru")
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, 1<<20, func(c *Config) {
		c.Shards = shards
		c.NewPolicy = f.PerShard(policy.Options{Capacity: 1 << 20}, shards)
	})
	cl := dialClient(t, srv)

	// 16 keys: every fourth frame a same-size SET; key 15 is too big for
	// the cache, so its GETs miss every time.
	eng := srv.backend.(engineBackend).eng
	ops, reached := make([]Op, 32), make(map[int]bool)
	for i := range ops {
		ops[i] = Op{Set: i%4 == 3, Key: trace.Key(i % 16), Size: 64, Time: -1}
		if ops[i].Key == 15 {
			ops[i].Size = 2 << 20
		}
		reached[eng.ShardIndex(ops[i].Key)] = true
	}
	if len(reached) != shards {
		t.Fatalf("the burst reaches %d of %d shards", len(reached), shards)
	}
	res := make([]bool, len(ops))
	burst := func() {
		if err := cl.Send(ops); err != nil {
			t.Fatal(err)
		}
		if n, err := cl.Recv(ops, res); err != nil || n != len(ops) {
			t.Fatalf("%d of %d answered: %v", n, len(ops), err)
		}
	}
	for i := 0; i < 32; i++ {
		burst() // warm up: admit the keys, grow client scratch, fault in bufio pages
	}
	if res[0] != true || res[3] != true || res[15] != false {
		t.Fatalf("warm GET %v, SET %v, oversized GET %v; want true, true, false", res[0], res[3], res[15])
	}
	if avg := testing.AllocsPerRun(200, burst); avg != 0 {
		t.Errorf("a 32-frame burst over %d shards allocates %.2f times; want 0", shards, avg)
	}
}

// recordingBatch is a BatchBackend that answers from a fixed rule (odd
// keys hit or store) and records the bursts it was handed.
type recordingBatch struct {
	mu     sync.Mutex
	bursts [][]Op
	single int // Get/Set calls: not the burst path
}

func (b *recordingBatch) ServeBatch(ops []Op, res []bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bursts = append(b.bursts, append([]Op(nil), ops...))
	for i, op := range ops {
		res[i] = op.Key%2 == 1
	}
}
func (b *recordingBatch) Get(key trace.Key, _, _ int64) bool { b.single++; return key%2 == 1 }
func (b *recordingBatch) Set(key trace.Key, _, _ int64) bool { b.single++; return key%2 == 1 }
func (b *recordingBatch) Stats() cache.Stats                 { return cache.Stats{} }

// TestBurstToBatchBackend: the frames a client wrote together reach a
// BatchBackend as one burst, in order, with timestamps resolved and a
// PING ending the burst; the replies come back in request order, one per
// request. A strict request-response client gets bursts of one.
func TestBurstToBatchBackend(t *testing.T) {
	noTime := uint64(math.MaxUint64) // binNoTime on the wire
	var frames []byte
	for _, f := range []struct {
		verb      byte
		key, size uint64
		ts        uint64
	}{
		{binVerbGet, 1, 10, 5}, {binVerbGet, 2, 11, noTime}, {binVerbSet, 3, 12, noTime},
		{binVerbGet, 4, 13, noTime}, {binVerbGet, 5, 14, noTime}, {binVerbPing, 0, 0, 0}, {binVerbSet, 6, 15, noTime},
	} {
		frames = append(frames, rawFrame(binMagicReq, f.verb, f.key, f.size, f.ts)...)
	}
	var replies []byte
	for _, r := range []struct {
		status byte
		size   int64
	}{
		{binStatusHit, 10}, {binStatusMiss, 11}, {binStatusStored, 12},
		{binStatusMiss, 13}, {binStatusHit, 14}, {binStatusPong, 0}, {binStatusNotStored, 15},
	} {
		replies = appendBinResp(replies, r.status, r.size)
	}
	t.Run("binary", func(t *testing.T) {
		be := &recordingBatch{}
		srv, err := New(Config{Backend: be, DrainTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(replies))
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(conn, got); err != nil || !bytes.Equal(got, replies) {
			t.Fatalf("replies % x err=%v, want % x", got, err, replies)
		}

		cl := dialClient(t, srv)
		for k := trace.Key(10); k < 13; k++ {
			if hit, err := cl.Get(k, 10, binNoTime); err != nil || hit != (k%2 == 1) {
				t.Errorf("GET %d: hit=%v err=%v", k, hit, err)
			}
		}

		be.mu.Lock()
		defer be.mu.Unlock()
		var sizes []int
		for _, b := range be.bursts {
			sizes = append(sizes, len(b))
		}
		if want := []int{5, 1, 1, 1, 1}; !reflect.DeepEqual(sizes, want) {
			t.Fatalf("burst sizes %v, want %v (one write, split only by its PING; then strict request-response)", sizes, want)
		}
		first := be.bursts[0]
		for i, op := range first {
			if op.Key != trace.Key(i+1) || op.Size != int64(10+i) || op.Set != (i == 2) {
				t.Errorf("burst op %d = %+v", i, op)
			}
			if op.Time < 5 || i > 0 && op.Time <= first[i-1].Time {
				t.Errorf("burst op %d: time %d is not resolved against the virtual clock (previous %d)", i, op.Time, first[max(i-1, 0)].Time)
			}
		}
		if be.single != 0 {
			t.Errorf("%d requests took the op-by-op path", be.single)
		}
	})
}

// TestPingBothProtocols: PING answers PONG on text and binary
// connections, is counted in server.pings, and never contributes to
// the request counters health probing must not skew.
func TestPingBothProtocols(t *testing.T) {
	srv := newTestServer(t, 100)

	txt, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Close()
	_ = txt.SetDeadline(time.Now().Add(5 * time.Second))
	txtReplies := bufio.NewReader(txt)
	bin := dialClient(t, srv)

	for i := 0; i < 3; i++ {
		if _, err := io.WriteString(txt, "PING\n"); err != nil {
			t.Fatal(err)
		}
		if line, err := txtReplies.ReadString('\n'); err != nil || line != "PONG\n" {
			t.Fatalf("text ping %d: %q, %v", i, line, err)
		}
		if err := bin.Ping(); err != nil {
			t.Fatalf("binary ping %d: %v", i, err)
		}
	}
	// One real request so the counters are provably live.
	if _, err := bin.Get(1, 10, 1); err != nil {
		t.Fatal(err)
	}
	m, err := FetchMetrics(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if m["server.pings"] != 6 {
		t.Errorf("server.pings = %d, want 6", m["server.pings"])
	}
	if m["server.requests_binary"] != 1 {
		t.Errorf("server.requests_binary = %d, want 1 (pings must not count)", m["server.requests_binary"])
	}
	if m["cache.requests"] != 1 {
		t.Errorf("cache.requests = %d, want 1", m["cache.requests"])
	}
}

// TestReplaySurvivesReadFaultsBinary: the resends of a read-fault
// replay each ride a fresh connection, and every one of them must be
// classified binary again — no reconnect may fall back to text, and
// every completed request is counted once on the binary codec.
func TestReplaySurvivesReadFaultsBinary(t *testing.T) {
	srv, completed, reconnects := replayUnderReadFaults(t)
	if reconnects == 0 {
		t.Fatal("expected reconnects under injected read faults")
	}
	reg := srv.Metrics()
	if n := reg.Counter("server.conns_text").Load(); n != 0 {
		t.Errorf("server.conns_text = %d, want 0", n)
	}
	// A fault on a connection's first read ends it before its codec is
	// picked, so some reconnects may go uncounted, but none twice.
	if n := reg.Counter("server.conns_binary").Load(); n < 1 || n > 1+reconnects {
		t.Errorf("server.conns_binary = %d, want 1..%d", n, 1+reconnects)
	}
	if n := reg.Counter("server.requests_binary").Load(); n != completed {
		t.Errorf("server.requests_binary = %d, client completed %d", n, completed)
	}
}

// TestBinaryStressFaultMatrix: concurrent pipelined clients under
// injected read faults and pre-reply stalls. Totals must reconcile and
// no client may desync.
func TestBinaryStressFaultMatrix(t *testing.T) {
	const (
		clients      = 20
		opsPerConn   = 200
		readFaultMod = 97 // sparse: a faulted conn loses its whole pipeline batch
	)
	var reads atomic.Int64
	var stalls atomic.Int64
	srv := newTestServer(t, 50_000, func(c *Config) {
		c.idle = 2 * time.Second
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
					Key:  trace.Key(c*64 + r.Intn(32)),
					Size: 16,
					Time: -1,
				})
			}
			for attempt := 0; attempt < 20 && len(pendingOps) > 0; attempt++ {
				cl, err := Dial(srv.Addr())
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
	m := metricsUnderFaults(t, srv)
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
		peerOps[i] = Op{Key: trace.Key(i % 50), Size: 8, Time: -1}
	}
	go func() {
		cl, err := Dial(srv.Addr())
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
