package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/policy"
	"raven/internal/stats"
	"raven/internal/trace"
)

// wireOp is one request of the equivalence stream: an Op, or a PING.
type wireOp struct {
	Op
	ping bool
}

// equivalenceStream is a deterministic mix of GETs and SETs over a key
// space several times the cache, with explicit and clockless
// timestamps, SETs that change a resident's size, and PINGs in between.
func equivalenceStream(n int) []wireOp {
	g := stats.NewRNG(17)
	out := make([]wireOp, 0, n)
	now := int64(0)
	for len(out) < n {
		if g.Intn(11) == 0 {
			out = append(out, wireOp{ping: true})
			continue
		}
		key := g.Intn(96)
		op := Op{Key: trace.Key(key), Size: int64(10 + key%7), Time: binNoTime}
		if g.Intn(4) == 0 {
			op.Set = true
			op.Size += int64(g.Intn(3)) * 5 // sometimes a new size for the key
		}
		if g.Intn(3) != 0 {
			now += 1 + int64(g.Intn(4))
			op.Time = now
		}
		out = append(out, wireOp{Op: op})
	}
	return out
}

// encode renders one request of the stream in the given protocol.
func (w wireOp) encode(bin bool) []byte {
	if bin {
		verb := binVerbGet
		switch {
		case w.ping:
			verb = binVerbPing
		case w.Set:
			verb = binVerbSet
		}
		return rawFrame(binMagicReq, verb, uint64(w.Key), uint64(w.Size), uint64(w.Time))
	}
	verb := "GET"
	switch {
	case w.ping:
		return []byte("PING\n")
	case w.Set:
		verb = "SET"
	}
	if w.Time < 0 {
		return []byte(fmt.Sprintf("%s %d %d\n", verb, w.Key, w.Size))
	}
	return []byte(fmt.Sprintf("%s %d %d %d\n", verb, w.Key, w.Size, w.Time))
}

// readOutcome reads one reply and reduces it to what both protocols can
// say: the positive or negative answer to a GET/SET with the size it
// echoes, or a PONG.
func readOutcome(t *testing.T, r *bufio.Reader, bin bool) string {
	t.Helper()
	if !bin {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply: %v", err)
		}
		return strings.TrimSpace(line)
	}
	var rep [binRespLen]byte
	if _, err := io.ReadFull(r, rep[:]); err != nil {
		t.Fatalf("read reply: %v", err)
	}
	word, ok := statusWords[rep[1]]
	if rep[0] != binMagicResp || !ok {
		t.Fatalf("reply frame % x", rep)
	}
	if word == "PONG" {
		return word
	}
	return fmt.Sprintf("%s %d", word, int64(binary.LittleEndian.Uint64(rep[2:10])))
}

// statusWords names the binary statuses the way the text codec does.
var statusWords = map[byte]string{
	binStatusHit: "HIT", binStatusMiss: "MISS", binStatusStored: "STORED",
	binStatusNotStored: "NOSTORED", binStatusPong: "PONG",
}

// cacheMetrics is the cache.* slice of a registry snapshot.
func cacheMetrics(reg *obs.Registry) []obs.KV {
	var out []obs.KV
	for _, kv := range reg.Snapshot() {
		if strings.HasPrefix(kv.Name, "cache.") {
			out = append(out, kv)
		}
	}
	return out
}

// TestProtocolEquivalence is the fence around the single request loop:
// one op stream, replayed over text and over binary at pipeline depths
// 1, 7 and 32 against fresh identically-seeded servers, must produce
// the same reply to every request, the same STATS and the same cache.*
// METRICS; the codec's request counter must count exactly the GET/SETs
// and the PINGs must stay out of it.
func TestProtocolEquivalence(t *testing.T) {
	stream := equivalenceStream(1500)
	ops, pings := int64(0), int64(0)
	for _, w := range stream {
		if w.ping {
			pings++
		} else {
			ops++
		}
	}
	type result struct {
		outcomes []string
		stats    cache.Stats
		cache    []obs.KV
	}
	var want *result
	for _, pol := range []string{"lru", "adaptsize"} { // a plain policy and a seeded admitter
		want = nil
		for _, bin := range []bool{false, true} {
			for _, depth := range []int{1, 7, 32} {
				name := fmt.Sprintf("%s/binary=%v/depth=%d", pol, bin, depth)
				const capacity = 400 // ~30 of the 96 keys
				srv, err := New(Config{
					Capacity:     capacity,
					NewPolicy:    cache.SingleFactory(policy.MustNew(pol, policy.Options{Capacity: capacity, Seed: 5})),
					DrainTimeout: time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
				r := bufio.NewReader(conn)
				got := &result{}
				for i := 0; i < len(stream); i += depth {
					burst := stream[i:min(i+depth, len(stream))]
					var wire []byte
					for _, w := range burst {
						wire = append(wire, w.encode(bin)...)
					}
					if _, err := conn.Write(wire); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for range burst {
						got.outcomes = append(got.outcomes, readOutcome(t, r, bin))
					}
				}
				conn.Close()
				got.stats, got.cache = srv.Stats(), cacheMetrics(srv.Metrics())
				own, other := "server.requests_text", "server.requests_binary"
				if bin {
					own, other = other, own
				}
				m := srv.Metrics()
				if n := m.Counter(own).Load(); n != ops {
					t.Errorf("%s: %s = %d, want %d", name, own, n, ops)
				}
				if n := m.Counter(other).Load(); n != 0 {
					t.Errorf("%s: %s = %d, want 0", name, other, n)
				}
				if n := m.Counter("server.pings").Load(); n != pings {
					t.Errorf("%s: server.pings = %d, want %d", name, n, pings)
				}
				_ = srv.Close()

				if want == nil {
					want = got
					st := srv.Stats()
					if st.Evictions == 0 || st.Hits == 0 || st.Sets == 0 {
						t.Fatalf("%s: degenerate stream: %+v", name, st)
					}
					continue
				}
				for i := range want.outcomes {
					if got.outcomes[i] != want.outcomes[i] {
						t.Fatalf("%s: reply %d to %+v = %q, want %q", name, i, stream[i], got.outcomes[i], want.outcomes[i])
					}
				}
				if got.stats != want.stats {
					t.Errorf("%s: STATS %+v, want %+v", name, got.stats, want.stats)
				}
				if !reflect.DeepEqual(got.cache, want.cache) {
					t.Errorf("%s: cache.* METRICS differ:\n got %v\nwant %v", name, got.cache, want.cache)
				}
			}
		}
	}
}

// FuzzTextLines throws arbitrary bytes at the text codec, then a
// well-formed request. Whatever arrives, the server must not panic,
// must answer every non-blank line exactly once (a METRICS reply counts
// as one) until a line that closes the connection (QUIT, or one over
// maxLineBytes), and must answer the trailing request with its own
// size: the stream never desyncs.
func FuzzTextLines(f *testing.F) {
	srv, err := New(Config{
		Capacity:     1 << 20,
		NewPolicy:    cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: 1 << 20})),
		DrainTimeout: time.Second,
		IdleTimeout:  2 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	for _, seed := range []string{
		"GET 1 10\n", "SET 2 20 5\nGET 2 20 6\n", "PING\nSTATS\nMETRICS\nping\n",
		"get 1 1\r\nGeT 1 1\r\n", "GET\nSET 1\nGET 1 2 3 4\n", "GET 1 0\nGET x 1\nGET 1 1 -5\n",
		"GET 18446744073709551616 1\nGET 1 9223372036854775808\n",
		"QUIT\nGET 1 1\n", "quit now\n", "\n\n \t\r\n", "BOGUS \x00\xff\x80\n", "GET 1 1",
		"\x81GET 1 1\n", strings.Repeat("a", maxLineBytes+10) + "\nGET 1 1\n",
		strings.Repeat("GET 3 30 7\n", 40),
	} {
		f.Add([]byte(seed))
	}

	const sentinel = 424242
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0] == binMagicReq {
			t.Skip("the binary codec's connection")
		}
		if len(data) > 4*maxLineBytes {
			t.Skip("oversized input")
		}
		// What the codec should make of it, line by line.
		want, closed := 0, false
		for _, line := range bytes.SplitAfter(append(data[:len(data):len(data)], '\n'), []byte{'\n'}) {
			if len(line) == 0 {
				continue // SplitAfter's empty tail
			}
			if len(line) > maxLineBytes {
				want, closed = want+1, true // "ERR line too long"
				break
			}
			fields := splitFields(line, nil)
			if len(fields) == 0 {
				continue
			}
			if verbIs(fields[0], "QUIT") {
				closed = true
				break
			}
			want++
		}

		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Skip("dial:", err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			_, _ = conn.Write(data)
			_, _ = fmt.Fprintf(conn, "\nGET 7 %d\n", sentinel)
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		r := bufio.NewReaderSize(conn, 1<<16)
		got, last, reset := 0, "", false
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				// A server that closes with input still unread resets
				// the connection, which may cost the replies in flight.
				if reset = closed && err != io.EOF; !reset && (err != io.EOF || line != "") {
					t.Fatalf("reading replies: %v (partial %q)", err, line)
				}
				break
			}
			got, last = got+1, line
			var n int
			if _, err := fmt.Sscanf(line, "METRICS %d\n", &n); err == nil {
				for ; n > 0; n-- {
					if _, err := r.ReadString('\n'); err != nil {
						t.Fatalf("torn METRICS reply: %v", err)
					}
				}
			}
		}
		if closed {
			if got > want || got < want && !reset {
				t.Fatalf("%d replies before the closing line, want %d (last %q)", got, want, last)
			}
			return
		}
		if got != want+1 {
			t.Fatalf("%d replies, want %d and the trailing request's (last %q)", got, want, last)
		}
		if last != fmt.Sprintf("MISS %d\n", sentinel) && last != fmt.Sprintf("HIT %d\n", sentinel) {
			t.Fatalf("trailing request answered %q: the stream desynced", last)
		}
	})
}

// TestTextBadLinesKeepOrder: an error reply is staged while its burst is
// still being gathered; it must still come out after the replies of the
// requests in front of it.
func TestTextBadLinesKeepOrder(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("SET 1 10\nGET 1 10\nGET 1\nGET 1 10\nFROB\n\nGET 2 5\nQUIT\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	want := "STORED 10\nHIT 10\nERR want: GET <key> <size> [time]\nHIT 10\nERR unknown command \"FROB\"\nMISS 5\n"
	if string(got) != want {
		t.Errorf("replies %q, want %q", got, want)
	}
	if n := srv.Metrics().Counter("server.bad_requests").Load(); n != 2 {
		t.Errorf("bad_requests = %d, want 2", n)
	}
}
