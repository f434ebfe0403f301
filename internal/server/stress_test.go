package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raven/internal/trace"
)

// TestStressHostileClients is the hardening acceptance test: 100
// concurrent clients with ~10% induced read errors plus 5 slow-loris
// connections against a MaxConns-limited server. The server must stay
// responsive (bounded p99 GET latency), shed excess load with
// "ERR busy", reap the loris connections, drain within the drain
// deadline on Close, and report METRICS totals that reconcile exactly
// with the clients' own counts.
func TestStressHostileClients(t *testing.T) {
	const (
		clients     = 100
		reqsPerConn = 30
		lorisConns  = 5
		maxConns    = 20
		drainBound  = 500 * time.Millisecond
	)
	var reads atomic.Int64
	srv := newTestServer(t, 50_000, func(c *Config) {
		c.MaxConns = maxConns
		c.idle = 200 * time.Millisecond
		c.DrainTimeout = drainBound
		c.Faults = &Faults{ReadErr: func() bool { return reads.Add(1)%10 == 0 }}
	})

	// 5 slow-loris connections: dial, send a partial line, stall until
	// the server reaps them.
	var lorisWG sync.WaitGroup
	for i := 0; i < lorisConns; i++ {
		lorisWG.Add(1)
		go func() {
			defer lorisWG.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return
			}
			defer conn.Close()
			_, _ = conn.Write([]byte("GET 99999"))
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			buf := make([]byte, 256)
			for {
				if _, err := conn.Read(buf); err != nil {
					return // reaped (EOF) or shed
				}
			}
		}()
	}

	// 100 clients, each issuing reqsPerConn requests with retry — a
	// shed "ERR busy" or an injured connection must not lose requests.
	var (
		okGets  atomic.Int64
		okHits  atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr atomic.Value
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dialRetry(srv.Addr(), 5*time.Second, 10, 5*time.Millisecond)
			if err != nil {
				errOnce.Do(func() { firstEr.Store(err) })
				return
			}
			defer cl.Close()
			for i := 0; i < reqsPerConn; i++ {
				hit, err := cl.do(Op{Key: trace.Key(c*64 + i%32), Size: 16, Time: int64(c*reqsPerConn + i + 1)})
				if err != nil {
					errOnce.Do(func() { firstEr.Store(err) })
					return
				}
				okGets.Add(1)
				if hit {
					okHits.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	lorisWG.Wait()
	if err := firstEr.Load(); err != nil {
		t.Fatalf("client gave up despite retries: %v", err)
	}
	if got := okGets.Load(); got != clients*reqsPerConn {
		t.Fatalf("completed %d requests, want %d", got, clients*reqsPerConn)
	}

	// Reconcile server-side metrics with client-side counts: every
	// successful round trip is exactly one cache request (faults kill
	// requests before processing, never after).
	m := metricsUnderFaults(t, srv)
	if m["cache.requests"] != okGets.Load() {
		t.Errorf("server processed %d requests, clients completed %d", m["cache.requests"], okGets.Load())
	}
	if m["cache.hits"] != okHits.Load() {
		t.Errorf("server counted %d hits, clients saw %d", m["cache.hits"], okHits.Load())
	}
	if m["server.get_latency_ns.count"] != okGets.Load() {
		t.Errorf("latency histogram has %d samples, want %d", m["server.get_latency_ns.count"], okGets.Load())
	}

	// Responsiveness: p99 GET handling latency stays bounded (no
	// configured delays, so this is pure server-side work even with
	// hostile traffic in the mix).
	if p99 := m["server.get_latency_ns.p99"]; p99 <= 0 || p99 > int64(500*time.Millisecond) {
		t.Errorf("p99 GET latency %dns out of bounds (0, 500ms]", p99)
	}

	// Load shedding engaged: 105 connections contended for 20 slots.
	if m["server.conns_shed"] == 0 {
		t.Error("no connections were shed despite MaxConns pressure")
	}
	if m["server.read_errors"] == 0 {
		t.Error("no injected read errors were observed")
	}

	// Drain: Close must finish within the drain bound plus scheduling
	// slack.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if d := time.Since(start); d > drainBound+2*time.Second {
		t.Errorf("Close took %v, want <= drain bound %v plus slack", d, drainBound)
	}
}
