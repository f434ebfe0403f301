// Package server implements the prototype cache server used for the
// paper's §5.4 system experiment — our stand-in for the Apache Traffic
// Server integration. It serves two protocols on the same port,
// selected per connection by the first byte (no text command starts
// with the binary magic 0x80):
//
// Line-based text protocol:
//
//	GET <key> <size> [time]\n →  HIT <size>\n | MISS <size>\n
//	SET <key> <size> [time]\n →  STORED <size>\n | NOSTORED <size>\n
//	STATS\n                   →  STATS <requests> <hits> <reqBytes> <hitBytes>\n
//	METRICS\n                 →  METRICS <n>\n followed by n "name value" lines
//	QUIT\n                    →  connection close
//
// Binary protocol (binary.go): fixed 26-byte little-endian request
// frames and 10-byte status replies, memcached-style. Both protocols
// support pipelining — any number of requests may be in flight per
// connection, replies come back in order, and the server batches
// reply flushes (one write syscall per drained read burst, not one
// per reply). All per-request parse/reply state lives in reusable
// per-connection buffers, so the steady-state GET/SET serving path
// performs zero heap allocations per request.
//
// A configurable origin delay is charged on every miss and a cache
// delay on every request, modelling the testbed RTTs of §5.1.4 at a
// reduced scale so experiments finish quickly. Any eviction policy
// from this repository can drive the server; the "unmodified ATS"
// baseline is the same server with LRU.
//
// The cache behind the server is sharded (cache.Sharded): N
// independent shards, each with its own policy instance, capacity
// slice, lock, and statistics, selected by a deterministic hash of the
// key. There is no global cache lock — GET/SET on different shards
// proceed in parallel, so one slow eviction decision (Raven inference)
// stalls only the requests that hash to the same shard. Per-shard
// metrics are exported as cache.shard<N>.* next to the merged cache.*
// totals.
//
// The server is hardened for hostile and heavy clients: every
// connection runs under read/write deadlines, an idle timeout reaps
// slow-loris connections, MaxConns sheds excess load with "ERR busy",
// the accept loop backs off exponentially on transient errors instead
// of spinning, Close drains gracefully with a bounded deadline, and a
// fault-injection surface (Faults) lets stress tests induce accept
// and read failures. Live counters, gauges, and latency histograms
// (internal/obs) are exported over the wire via METRICS.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/trace"
)

// maxLineBytes bounds one protocol line; longer lines are answered
// with "ERR line too long" and the connection is closed.
const maxLineBytes = 1 << 16

// defaultReadBuf is the per-connection read buffer; it bounds how
// many pipelined requests are parsed (and their replies batched) per
// read burst. Lines longer than the buffer still work — readLine
// accumulates chunks up to maxLineBytes.
const defaultReadBuf = 16 << 10

// replyBufBytes is the per-connection reply buffer. It comfortably
// holds the replies of a full read burst plus a METRICS snapshot, so
// the batched-flush path (not bufio's deadline-less auto-flush)
// decides when bytes hit the wire.
const replyBufBytes = 32 << 10

// Default lifecycle bounds applied when the corresponding Config field
// is zero. A negative Config value disables the bound entirely.
const (
	defaultIdleTimeout  = 2 * time.Minute
	defaultWriteTimeout = 30 * time.Second
	defaultDrainTimeout = 5 * time.Second
)

// maxConsecutiveAcceptErrors bounds how long the accept loop retries a
// failing listener before treating the error as permanent and exiting
// (with backoff capped at 1s this is roughly 15 seconds of failures).
const maxConsecutiveAcceptErrors = 16

// Config parameterizes a Server.
type Config struct {
	// Addr to listen on; use "127.0.0.1:0" for an ephemeral port.
	Addr string
	// Capacity of the cache in bytes (the total across all shards).
	Capacity int64
	// Policy drives evictions in the default single-shard setup. The
	// shard lock serializes access to it. Mutually exclusive with
	// NewPolicy; invalid when Shards > 1 (one instance cannot serve
	// two lock domains).
	Policy cache.Policy
	// Shards is the number of cache shards (rounded up to a power of
	// two; 0 = 1). Requests for different shards proceed in parallel.
	Shards int
	// NewPolicy builds one independent policy instance per shard; use
	// policy.Factory.PerShard to derive it from a registered policy.
	// Required when Shards > 1.
	NewPolicy cache.ShardFactory

	// Backend, when non-nil, replaces the in-process sharded cache
	// entirely: every GET/SET is delegated to it (the cluster router
	// serves its fleet through this seam while reusing the whole
	// hardened serving loop — deadlines, shedding, pipelining, the
	// zero-alloc parse path). Mutually exclusive with Policy/NewPolicy;
	// Capacity and Shards are ignored.
	Backend Backend

	// Registry, when non-nil, is used instead of a fresh metric
	// registry, so a Backend owner can serve its own metrics (e.g.
	// router.*) over this server's METRICS verb alongside server.*.
	Registry *obs.Registry

	// CacheDelay is charged on every request (edge RTT), OriginDelay
	// additionally on every miss.
	CacheDelay  time.Duration
	OriginDelay time.Duration

	// MaxConns caps concurrent connections; excess dials receive
	// "ERR busy" and are closed immediately. 0 means unlimited.
	MaxConns int
	// IdleTimeout is the per-request read deadline: a connection that
	// sends no complete line for this long is closed (slow-loris
	// defense). 0 applies defaultIdleTimeout; negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write. 0 applies
	// defaultWriteTimeout; negative disables.
	WriteTimeout time.Duration
	// DrainTimeout bounds Close's graceful drain: connections still
	// open after this long are force-closed. 0 applies
	// defaultDrainTimeout; negative disables the force-close (Close
	// then waits indefinitely, the pre-hardening behavior).
	DrainTimeout time.Duration

	// ReadBuf is the per-connection read buffer in bytes (0 applies
	// defaultReadBuf). Bigger buffers let deeper pipelines batch into
	// fewer reply flushes at the cost of memory per connection.
	ReadBuf int

	// Faults injects failures for stress testing; nil in production.
	Faults *Faults
}

// idleTimeout returns the effective idle timeout (0 = disabled).
func (c *Config) idleTimeout() time.Duration { return defaulted(c.IdleTimeout, defaultIdleTimeout) }

// writeTimeout returns the effective write timeout (0 = disabled).
func (c *Config) writeTimeout() time.Duration { return defaulted(c.WriteTimeout, defaultWriteTimeout) }

// drainTimeout returns the effective drain bound (0 = wait forever).
func (c *Config) drainTimeout() time.Duration { return defaulted(c.DrainTimeout, defaultDrainTimeout) }

// readBuf returns the effective per-connection read buffer size,
// floored so a full binary frame always fits.
func (c *Config) readBuf() int {
	if c.ReadBuf <= 0 {
		return defaultReadBuf
	}
	if c.ReadBuf < 2*binReqLen {
		return 2 * binReqLen
	}
	return c.ReadBuf
}

func defaulted(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// serverMetrics holds the hot-path metric handles; all of them live in
// the server's Registry and appear in METRICS output.
type serverMetrics struct {
	connsAccepted *obs.Counter
	connsActive   *obs.Gauge
	connsShed     *obs.Counter
	idleClosed    *obs.Counter
	acceptErrors  *obs.Counter
	readErrors    *obs.Counter
	lineTooLong   *obs.Counter
	badRequests   *obs.Counter
	getLatency    *obs.Histogram
	setLatency    *obs.Histogram

	// Per-protocol traffic split (the text/binary sniff) and the
	// batched-flush count: flushes ≪ requests under pipelining.
	connsText      *obs.Counter
	connsBinary    *obs.Counter
	requestsText   *obs.Counter
	requestsBinary *obs.Counter
	flushes        *obs.Counter

	// pings counts PING probes (both protocols). They are deliberately
	// excluded from the request counters so health probing never skews
	// cache-traffic reconciliation.
	pings *obs.Counter
}

// Backend is the request-serving seam behind the protocol front-end.
// The default backend is the in-process sharded cache; the cluster
// router implements Backend to serve a whole fleet through the same
// hardened protocol loop. Get and Set receive the timestamp already
// resolved against the server's virtual clock and report hit/stored.
// Implementations must be safe for concurrent use.
type Backend interface {
	Get(key trace.Key, size, ts int64) bool
	Set(key trace.Key, size, ts int64) bool
	Stats() cache.Stats
}

// BatchBackend is optionally implemented by a Backend that serves a
// burst of pipelined requests faster together than one by one (the
// cluster router forwards a burst as one batch per node). The binary
// protocol loop probes for it; without it a burst is served through
// Get and Set, op by op.
type BatchBackend interface {
	Backend
	// ServeBatch serves ops in order and stores each op's outcome (hit
	// or stored) in res, which has len(ops). Op.Time is already
	// resolved against the server's virtual clock. Op.Quiet only
	// frames the front connection's reply and must be ignored: a quiet
	// get is served like any get.
	ServeBatch(ops []Op, res []bool)
}

// Server is a TCP cache server.
type Server struct {
	cfg Config
	ln  net.Listener

	// engine is the sharded cache; it owns all locking (per shard), so
	// the server has no global cache mutex on the request path. It is
	// nil when Config.Backend overrides it.
	engine  *cache.Sharded
	backend Backend
	batch   BatchBackend // backend, when it serves bursts as batches
	// vclock is the fallback virtual clock for clients that send no
	// trace timestamps: a monotone request counter across all shards.
	vclock atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	// fatal is closed when the accept loop exits abnormally (listener
	// permanently broken); fatalErr records why, under connMu.
	fatal    chan struct{}
	fatalErr error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	metrics *obs.Registry
	met     serverMetrics
}

// New creates and starts a server listening on cfg.Addr.
func New(cfg Config) (*Server, error) {
	var engine *cache.Sharded
	if cfg.Backend != nil {
		if cfg.Policy != nil || cfg.NewPolicy != nil {
			return nil, errors.New("server: Backend and Policy/NewPolicy are mutually exclusive")
		}
	} else {
		if cfg.Policy == nil && cfg.NewPolicy == nil {
			return nil, errors.New("server: need a Policy, a NewPolicy shard factory, or a Backend")
		}
		if cfg.Policy != nil && cfg.NewPolicy != nil {
			return nil, errors.New("server: Policy and NewPolicy are mutually exclusive")
		}
		if cfg.Capacity <= 0 {
			return nil, errors.New("server: capacity must be positive")
		}
		shards := cfg.Shards
		if shards <= 0 {
			shards = 1
		}
		factory := cfg.NewPolicy
		if factory == nil {
			if shards > 1 {
				return nil, errors.New("server: Shards > 1 requires NewPolicy (one Policy instance cannot serve several shard locks)")
			}
			factory = cache.SingleFactory(cfg.Policy)
		}
		var err error
		engine, err = cache.NewSharded(cfg.Capacity, shards, factory)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		engine:  engine,
		backend: cfg.Backend,
		closed:  make(chan struct{}),
		fatal:   make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		metrics: reg,
		met: serverMetrics{
			connsAccepted: reg.Counter("server.conns_accepted"),
			connsActive:   reg.Gauge("server.conns_active"),
			connsShed:     reg.Counter("server.conns_shed"),
			idleClosed:    reg.Counter("server.conns_idle_closed"),
			acceptErrors:  reg.Counter("server.accept_errors"),
			readErrors:    reg.Counter("server.read_errors"),
			lineTooLong:   reg.Counter("server.line_too_long"),
			badRequests:   reg.Counter("server.bad_requests"),
			getLatency:    reg.Histogram("server.get_latency_ns"),
			setLatency:    reg.Histogram("server.set_latency_ns"),

			connsText:      reg.Counter("server.conns_text"),
			connsBinary:    reg.Counter("server.conns_binary"),
			requestsText:   reg.Counter("server.requests_text"),
			requestsBinary: reg.Counter("server.requests_binary"),
			flushes:        reg.Counter("server.flushes"),
			pings:          reg.Counter("server.pings"),
		},
	}
	s.batch, _ = cfg.Backend.(BatchBackend)
	if engine != nil {
		cacheObs := &obs.ShardedCacheObs{}
		cacheObs.Init(engine.Shards())
		cacheObs.Register(reg, "cache")
		for i := 0; i < engine.Shards(); i++ {
			engine.SetShardObs(i, cacheObs.Shard(i))
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Shards returns the engine's shard count (a power of two), or 0 when
// a Backend replaces the in-process engine.
func (s *Server) Shards() int {
	if s.engine == nil {
		return 0
	}
	return s.engine.Shards()
}

// Fatal is closed if the accept loop dies without Close being called —
// the listener failed permanently and the server will never serve
// another connection. Operators (ravencached, ravenrouter) use this to
// exit non-zero instead of lingering as a zombie process.
func (s *Server) Fatal() <-chan struct{} { return s.fatal }

// FatalErr returns the accept error that killed the loop (nil before
// Fatal fires).
func (s *Server) FatalErr() error {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.fatalErr
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns merged per-shard cache statistics (or the Backend's
// view when one replaces the engine). Each shard's snapshot is taken
// under its own lock; see Sharded.StatsSnapshot.
func (s *Server) Stats() cache.Stats {
	if s.backend != nil {
		return s.backend.Stats()
	}
	return s.engine.StatsSnapshot()
}

// Metrics returns the server's metric registry (live counters, gauges,
// and latency histograms — the same data METRICS serves on the wire).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Close stops accepting connections, waits for in-flight handlers up
// to the drain deadline, then force-closes lingering connections. It
// is idempotent and safe to call concurrently: every call returns the
// first close's error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.ln.Close()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		drain := s.cfg.drainTimeout()
		if drain <= 0 {
			<-done
			return
		}
		t := time.NewTimer(drain)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			s.forceCloseConns()
			<-done
		}
	})
	return s.closeErr
}

// forceCloseConns tears down every registered connection; handlers
// then exit on their next read or write.
func (s *Server) forceCloseConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for conn := range s.conns {
		_ = conn.Close()
	}
}

// addConn registers conn, enforcing MaxConns. It reports false when
// the server is at capacity (the caller sheds the connection).
func (s *Server) addConn(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	s.met.connsActive.Set(int64(len(s.conns)))
	return true
}

func (s *Server) removeConn(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
	s.met.connsActive.Set(int64(len(s.conns)))
}

// shed refuses conn with "ERR busy" under a write deadline so a
// non-reading peer cannot stall the accept loop.
func (s *Server) shed(conn net.Conn) {
	s.met.connsShed.Inc()
	wt := s.cfg.writeTimeout()
	if wt <= 0 {
		wt = time.Second
	}
	_ = conn.SetWriteDeadline(time.Now().Add(wt))
	_, _ = conn.Write([]byte("ERR busy\n"))
	_ = conn.Close()
}

// accept performs one Accept, consulting the fault-injection hook
// first so stress tests can exercise the error path deterministically.
func (s *Server) accept() (net.Conn, error) {
	if f := s.cfg.Faults; f != nil && f.AcceptErr != nil {
		if err := f.AcceptErr(); err != nil {
			return nil, err
		}
	}
	return s.ln.Accept()
}

// acceptLoop accepts connections until the server closes. Transient
// accept errors back off exponentially (5ms doubling to a 1s cap, the
// net/http idiom) instead of hot-spinning; after
// maxConsecutiveAcceptErrors consecutive failures the listener is
// treated as permanently broken and the loop exits.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	consecutive := 0
	for {
		conn, err := s.accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.met.acceptErrors.Inc()
			consecutive++
			if consecutive > maxConsecutiveAcceptErrors {
				// The listener is permanently broken: surface it so the
				// operator process can exit non-zero instead of
				// lingering deaf to new connections.
				s.connMu.Lock()
				s.fatalErr = fmt.Errorf("server: accept loop gave up after %d consecutive errors: %w",
					consecutive, err)
				s.connMu.Unlock()
				close(s.fatal)
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else {
				backoff *= 2
				if backoff > time.Second {
					backoff = time.Second
				}
			}
			t := time.NewTimer(backoff)
			select {
			case <-s.closed:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff, consecutive = 0, 0
		s.met.connsAccepted.Inc()
		if !s.addConn(conn) {
			s.shed(conn)
			continue
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// connIO bundles one connection's reusable I/O state. Every buffer is
// allocated once at accept time and reused for each request, so the
// steady-state serving path (text and binary GET/SET) performs zero
// heap allocations per request — asserted by TestServingPathAllocFree.
type connIO struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	met  *serverMetrics

	idle  time.Duration // read deadline, armed when a read may block
	write time.Duration // write deadline, armed per flush

	line   []byte          // accumulates one text line across ReadSlice chunks
	fields [][]byte        // reused per-line field views into line
	out    []byte          // reply-building scratch
	hdr    [binReqLen]byte // binary request frame
	rep    [binRespLen]byte

	sawEOF bool // a final unterminated line was already served
}

// flush writes the buffered replies to the connection under the write
// deadline and reports whether the peer is still reachable.
func (c *connIO) flush() bool {
	if c.bw.Buffered() == 0 {
		return true
	}
	if c.write > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.write))
	}
	c.met.flushes.Inc()
	return c.bw.Flush() == nil
}

// maybeFlush flushes when the read side has drained (the handler is
// about to block, so the client is waiting on these replies) or the
// reply buffer is nearly full. Mid-burst replies stay buffered: a
// pipelined batch costs one write syscall, not one per reply.
func (c *connIO) maybeFlush() bool {
	if c.br.Buffered() == 0 || c.bw.Available() < 128 {
		return c.flush()
	}
	return true
}

// errLineTooLong marks a text request line exceeding maxLineBytes.
var errLineTooLong = errors.New("server: line too long")

// readLine reads one LF-terminated request line into c.line, reusing
// its backing array. The idle deadline is armed whenever the read may
// block (nothing buffered), so a slow-loris that trickles bytes is
// still reaped. A final unterminated line before EOF is served once,
// matching the previous bufio.Scanner behavior.
func (c *connIO) readLine() ([]byte, error) {
	if c.sawEOF {
		return nil, io.EOF
	}
	c.line = c.line[:0]
	for {
		if c.br.Buffered() == 0 && c.idle > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
		}
		chunk, err := c.br.ReadSlice('\n')
		if len(c.line)+len(chunk) > maxLineBytes {
			return nil, errLineTooLong
		}
		c.line = append(c.line, chunk...)
		switch err {
		case nil:
			return c.line, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(c.line) > 0 {
				c.sawEOF = true
				return c.line, nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// handle serves one connection: it sniffs the protocol from the first
// byte (the binary request magic can never start a text command) and
// dispatches to the text or binary loop for the connection's lifetime.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.removeConn(conn)
	defer conn.Close()
	var r io.Reader = conn
	if f := s.cfg.Faults; f != nil && f.ReadErr != nil {
		r = &faultReader{r: r, inject: f.ReadErr}
	}
	c := &connIO{
		conn:   conn,
		br:     bufio.NewReaderSize(r, s.cfg.readBuf()),
		bw:     bufio.NewWriterSize(conn, replyBufBytes),
		met:    &s.met,
		idle:   s.cfg.idleTimeout(),
		write:  s.cfg.writeTimeout(),
		line:   make([]byte, 0, 256),
		fields: make([][]byte, 0, 8),
		out:    make([]byte, 0, 64),
	}
	if c.idle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	first, err := c.br.Peek(1)
	if err != nil {
		s.classifyReadErr(err)
		return
	}
	if first[0] == binMagicReq {
		s.met.connsBinary.Inc()
		s.handleBinary(c)
		return
	}
	s.met.connsText.Inc()
	s.handleText(c)
}

// handleText serves one text-protocol connection. Requests are parsed
// in place from the connection's reusable line buffer and replies are
// built in its scratch buffer — no per-request allocation — with
// batched flushing shared with the binary path.
func (s *Server) handleText(c *connIO) {
	// Arm the idle deadline for the first line; readLine re-arms it
	// whenever a later read may block, and connIO.flush arms the write
	// deadline per batched flush.
	if c.idle > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	for {
		// Flush pending replies before a read that may block: the
		// client is waiting on them before it sends more.
		if !c.maybeFlush() {
			return
		}
		line, err := c.readLine()
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				// An oversized request line: tell the client why
				// before closing instead of silently dropping the
				// connection.
				s.met.lineTooLong.Inc()
				c.out = append(c.out[:0], "ERR line too long\n"...)
				_, _ = c.bw.Write(c.out)
				c.flush()
			} else {
				s.classifyReadErr(err)
			}
			return
		}
		c.fields = splitFields(line, c.fields[:0])
		fields := c.fields
		if len(fields) == 0 {
			continue
		}
		verb := fields[0]
		switch {
		case verbIs(verb, "GET"), verbIs(verb, "SET"):
			isGet := verbIs(verb, "GET")
			if len(fields) != 3 && len(fields) != 4 {
				s.met.badRequests.Inc()
				if isGet {
					c.out = append(c.out[:0], "ERR want: GET <key> <size> [time]\n"...)
				} else {
					c.out = append(c.out[:0], "ERR want: SET <key> <size> [time]\n"...)
				}
				if _, err := c.bw.Write(c.out); err != nil {
					return
				}
				continue
			}
			key, ok1 := parseUint(fields[1])
			size, ok2 := parseUint(fields[2])
			if !ok1 || !ok2 || size == 0 || size > math.MaxInt64 {
				s.met.badRequests.Inc()
				c.out = append(c.out[:0], "ERR bad key or size\n"...)
				if _, err := c.bw.Write(c.out); err != nil {
					return
				}
				continue
			}
			ts := int64(-1)
			if len(fields) == 4 {
				// A negative or otherwise malformed explicit timestamp
				// is rejected outright — it must not silently fall
				// back to the virtual clock and masquerade as a
				// clockless client.
				t, ok := parseUint(fields[3])
				if !ok || t > math.MaxInt64 {
					s.met.badRequests.Inc()
					c.out = append(c.out[:0], "ERR bad time\n"...)
					if _, err := c.bw.Write(c.out); err != nil {
						return
					}
					continue
				}
				ts = int64(t)
			}
			s.met.requestsText.Inc()
			t0 := time.Now()
			var reply string
			var hist *obs.Histogram
			if isGet {
				hit := s.serve(trace.Key(key), int64(size), ts)
				if s.cfg.CacheDelay > 0 {
					time.Sleep(s.cfg.CacheDelay)
				}
				if !hit && s.cfg.OriginDelay > 0 {
					time.Sleep(s.cfg.OriginDelay)
				}
				reply, hist = "MISS ", s.met.getLatency
				if hit {
					reply = "HIT "
				}
			} else {
				stored := s.serveSet(trace.Key(key), int64(size), ts)
				if s.cfg.CacheDelay > 0 {
					time.Sleep(s.cfg.CacheDelay)
				}
				reply, hist = "NOSTORED ", s.met.setLatency
				if stored {
					reply = "STORED "
				}
			}
			if f := s.cfg.Faults; f != nil && f.PreReply != nil {
				f.PreReply()
			}
			c.out = append(c.out[:0], reply...)
			c.out = strconv.AppendUint(c.out, size, 10)
			c.out = append(c.out, '\n')
			_, err := c.bw.Write(c.out)
			hist.Observe(time.Since(t0).Nanoseconds())
			if err != nil {
				return
			}
		case verbIs(verb, "STATS"):
			st := s.Stats()
			if f := s.cfg.Faults; f != nil && f.PreReply != nil {
				f.PreReply()
			}
			c.out = append(c.out[:0], "STATS "...)
			c.out = strconv.AppendInt(c.out, st.Requests, 10)
			c.out = append(c.out, ' ')
			c.out = strconv.AppendInt(c.out, st.Hits, 10)
			c.out = append(c.out, ' ')
			c.out = strconv.AppendInt(c.out, st.ReqBytes, 10)
			c.out = append(c.out, ' ')
			c.out = strconv.AppendInt(c.out, st.HitBytes, 10)
			c.out = append(c.out, '\n')
			if _, err := c.bw.Write(c.out); err != nil {
				return
			}
		case verbIs(verb, "METRICS"):
			// The whole snapshot is built into one buffer and handed
			// to the writer as a unit: a mid-snapshot write fault
			// kills the connection instead of leaving the client a
			// torn half-snapshot, and the reply costs one flush.
			kvs := s.metrics.Snapshot()
			if f := s.cfg.Faults; f != nil && f.PreReply != nil {
				f.PreReply()
			}
			c.out = append(c.out[:0], "METRICS "...)
			c.out = strconv.AppendInt(c.out, int64(len(kvs)), 10)
			c.out = append(c.out, '\n')
			for _, kv := range kvs {
				c.out = append(c.out, kv.Name...)
				c.out = append(c.out, ' ')
				c.out = strconv.AppendInt(c.out, kv.Value, 10)
				c.out = append(c.out, '\n')
			}
			if _, err := c.bw.Write(c.out); err != nil {
				return
			}
			if !c.flush() {
				return
			}
		case verbIs(verb, "PING"):
			// Liveness probe: answered without touching the cache and
			// excluded from request counters, so health probing never
			// skews traffic reconciliation.
			s.met.pings.Inc()
			if f := s.cfg.Faults; f != nil && f.PreReply != nil {
				f.PreReply()
			}
			c.out = append(c.out[:0], "PONG\n"...)
			if _, err := c.bw.Write(c.out); err != nil {
				return
			}
		case verbIs(verb, "QUIT"):
			c.flush()
			return
		default:
			s.met.badRequests.Inc()
			c.out = fmt.Appendf(c.out[:0], "ERR unknown command %q\n", verb)
			if _, err := c.bw.Write(c.out); err != nil {
				return
			}
		}
	}
}

// classifyReadErr counts why a connection's read loop ended: reaped by
// the idle deadline, a clean close, or a real read failure.
func (s *Server) classifyReadErr(err error) {
	switch {
	case err == nil, errors.Is(err, io.EOF):
		// clean close
	case isTimeout(err):
		s.met.idleClosed.Inc()
	default:
		// Includes io.ErrUnexpectedEOF: a truncated binary frame.
		s.met.readErrors.Inc()
	}
}

// isTimeout reports whether err is a network timeout (the idle
// deadline expiring shows up here).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// asciiSpace reports whether b is text-protocol field whitespace.
func asciiSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\r' || b == '\n' }

// splitFields splits line on ASCII whitespace into dst, reusing its
// capacity; the returned views alias line.
func splitFields(line []byte, dst [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// verbIs reports a case-insensitive match of b against the upper-case
// ASCII verb.
func verbIs(b []byte, verb string) bool {
	if len(b) != len(verb) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i]&^byte(0x20) != verb[i] {
			return false
		}
	}
	return true
}

// parseUint parses an unsigned decimal from b. It rejects empty
// input, any non-digit (including a sign), and overflow.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		d := uint64(ch - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// now resolves a request's policy timestamp. Explicit timestamps
// ratchet the virtual clock forward (never backward), so mixed
// timestamped and clockless clients keep policy time monotone —
// learning-policy training windows must never observe time running
// in reverse. Clockless requests (ts < 0) tick the clock.
func (s *Server) now(ts int64) int64 {
	if ts < 0 {
		return s.vclock.Add(1)
	}
	for {
		cur := s.vclock.Load()
		if ts <= cur || s.vclock.CompareAndSwap(cur, ts) {
			return ts
		}
	}
}

// serve handles one lookup on the key's shard; only that shard's lock
// is held. ts < 0 substitutes the virtual clock so learning policies'
// training windows still advance for clients that do not send trace
// timestamps; explicit timestamps ratchet that clock (see now).
func (s *Server) serve(key trace.Key, size int64, ts int64) bool {
	t := s.now(ts)
	if s.backend != nil {
		return s.backend.Get(key, size, t)
	}
	req := trace.Request{Time: t, Key: key, Size: size, Next: trace.NoNext}
	return s.engine.Handle(req)
}

// serveSet stores one object on the key's shard (see cache.Cache.Set)
// and reports whether it is resident afterwards.
func (s *Server) serveSet(key trace.Key, size int64, ts int64) bool {
	t := s.now(ts)
	if s.backend != nil {
		return s.backend.Set(key, size, t)
	}
	req := trace.Request{Time: t, Key: key, Size: size, Next: trace.NoNext}
	return s.engine.Set(req)
}
