package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"raven/internal/cache"
	"raven/internal/policy"
)

// FuzzTextLines throws arbitrary bytes at the text codec, then a PING.
// Whatever arrives, the server must not panic, must answer every
// non-blank line exactly once (a METRICS reply counts as one, a GET or
// SET line gets its ERR) until a line that closes the connection (QUIT,
// or one over maxLineBytes), and must answer the trailing PING last:
// the stream never desyncs.
func FuzzTextLines(f *testing.F) {
	srv, err := New(Config{
		Capacity:     1 << 20,
		NewPolicy:    cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: 1 << 20})),
		DrainTimeout: time.Second,
		idle:         2 * time.Second,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })

	for _, seed := range []string{
		"GET 1 10\n", "SET 2 20 5\nGET 2 20 6\n", "PING\nSTATS\nMETRICS\nping\n",
		" \tping \r\nStAtS extra\r\n", "METRICS\nMETRICS\nPING PING\n", "PINGPING\nPIN\nSTATS\x00\n",
		"metrics 1 2 3\n\nstats\n",
		"QUIT\nGET 1 1\n", "quit now\n", "\n\n \t\r\n", "BOGUS \x00\xff\x80\n", "GET 1 1",
		"\x81GET 1 1\n", strings.Repeat("a", maxLineBytes+10) + "\nGET 1 1\n",
		strings.Repeat("GET 3 30 7\n", 40),
	} {
		f.Add([]byte(seed))
	}

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
			name := firstField(line)
			if len(name) == 0 {
				continue
			}
			if verbIs(name, "QUIT") {
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
			_, _ = io.WriteString(conn, "\nPING\n")
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
		if last != "PONG\n" {
			t.Fatalf("trailing PING answered %q: the stream desynced", last)
		}
	})
}

// TestTextBadLinesKeepOrder: the text codec carries only the control
// verbs. A GET or SET line is answered "ERR unknown command" like any
// other unknown verb, the connection stays open, and every reply comes
// out in request order, up to the pipelined METRICS then QUIT that end
// the stream. No line reaches the cache.
func TestTextBadLinesKeepOrder(t *testing.T) {
	srv := newTestServer(t, 100)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("PING\nSET 1 10\nget 1 10 5\nSTATS\nFROB\n\nPING\nMETRICS\nQUIT\nPING\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for _, want := range []string{
		"PONG", `ERR unknown command "SET"`, `ERR unknown command "get"`,
		"STATS 0 0 0 0", `ERR unknown command "FROB"`, "PONG",
	} {
		if line, err := r.ReadString('\n'); err != nil || line != want+"\n" {
			t.Fatalf("reply %q (err %v), want %q", line, err, want)
		}
	}
	var n int
	if _, err := fmt.Fscanf(r, "METRICS %d\n", &n); err != nil {
		t.Fatalf("METRICS header: %v", err)
	}
	pings := int64(-1)
	for ; n > 0; n-- {
		var name string
		var v int64
		if _, err := fmt.Fscanf(r, "%s %d\n", &name, &v); err != nil {
			t.Fatalf("METRICS line: %v", err)
		}
		if name == "server.pings" {
			pings = v
		}
	}
	if pings != 2 {
		t.Errorf("METRICS server.pings = %d, want the 2 PINGs before it", pings)
	}
	if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
		t.Errorf("after QUIT: %q (err %v), want a clean close", rest, err)
	}
	if n := srv.Metrics().Counter("server.bad_requests").Load(); n != 3 {
		t.Errorf("bad_requests = %d, want 3", n)
	}
	if st := srv.Stats(); st.Requests != 0 || st.Sets != 0 {
		t.Errorf("a text line reached the cache: %+v", st)
	}
}
