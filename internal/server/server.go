// Package server implements the prototype cache server used for the
// paper's §5.4 system experiment — our stand-in for the Apache Traffic
// Server integration. One request loop (serveConn) serves every
// connection; what differs per connection is the codec, picked by the
// first byte (no text command starts with the binary magic 0x80).
// Cache operations are fixed 26-byte request and 10-byte reply frames,
// memcached-style (binary.go); LF-terminated text lines (text.go) are
// the control channel operators and probes type by hand.
//
//	verb       binary: verb → status, payload        text: request → reply
//	GET        0x01 → HIT|MISS, size                 —
//	SET        0x02 → STORED|NOSTORED, size          —
//	PING       0x05 → PONG                           PING → PONG
//	QUIT       0x03 → close                          QUIT → close
//	STATS      —                                     STATS → STATS <requests> <hits> <reqBytes> <hitBytes>
//	METRICS    —                                     METRICS → METRICS <n> + n "name value" lines
//	malformed  0x80 (unknown verb) or 0x81 (bad      ERR <why>, connection goes on; a line over
//	           frame), then close                    64 KiB: ERR line too long, then close
//
// A verb a codec does not carry is malformed to it: a text GET is
// answered "ERR unknown command". Both codecs pipeline: any number of
// requests may be in flight, replies come back in order, the GET/SETs
// buffered together are served as one burst — one ServeBatch call, one
// pair of clock reads, and on a one-shard engine one acquisition of its
// lock — and their replies leave in one write. All per-request state
// lives in the connection's reusable block, so the steady-state GET/SET
// path performs zero heap allocations per request.
//
// The server adds no delay of its own. Any eviction policy from this
// repository can drive it; the §5.4 experiment (Fig. 12 / Table 3)
// replays what it serves through sim.Run, which TestServedEqualsSimulated
// holds equal to the wire, with LRU as the "unmodified ATS" baseline.
//
// The cache behind the server is sharded (cache.Sharded): N
// independent shards, each with its own policy instance, capacity
// slice, lock, and statistics, selected by a deterministic hash of the
// key. There is no global cache lock — GET/SET on different shards
// proceed in parallel, so one slow eviction decision (Raven inference)
// stalls only the requests that hash to the same shard. A burst is
// served in request order, each run of consecutive same-shard requests
// under one hold of that shard's lock. Per-shard metrics are exported
// as cache.shard<N>.* next to the merged cache.* totals.
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
	"net"
	"sync"
	"sync/atomic"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/trace"
)

// readBufBytes is the per-connection read buffer; it bounds how
// many pipelined requests are parsed (and their replies batched) per
// read burst. Text lines longer than the buffer still work — readLine
// accumulates chunks up to maxLineBytes.
const readBufBytes = 16 << 10

// replyBufBytes is the per-connection reply buffer. It comfortably
// holds the replies of a full read burst plus a METRICS snapshot, so
// the batched-flush path (not bufio's deadline-less auto-flush)
// decides when bytes hit the wire.
const replyBufBytes = 32 << 10

// Connection lifecycle bounds. No configuration disarms a deadline:
// every read that can block and every flush runs under one.
const (
	// idleTimeout is armed before every read that can block: a
	// connection that sends no complete request for this long is closed
	// (slow-loris defense).
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds each flush, and the ERR busy of a shed
	// connection.
	writeTimeout = 30 * time.Second
	// defaultDrainTimeout is Close's drain bound when
	// Config.DrainTimeout is zero.
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
	// Shards is the number of cache shards (rounded up to a power of
	// two; 0 = 1, negative is an error). Requests for different shards
	// proceed in parallel.
	Shards int
	// NewPolicy builds one independent policy instance per shard; use
	// policy.Factory.PerShard to derive it from a registered policy, or
	// cache.SingleFactory to serve one pre-built instance on one shard.
	NewPolicy cache.ShardFactory

	// Backend, when non-nil, replaces the in-process sharded cache
	// entirely: every GET/SET is delegated to it (the cluster router
	// serves its fleet through this seam while reusing the whole
	// hardened serving loop — deadlines, shedding, pipelining, the
	// zero-alloc parse path). Mutually exclusive with NewPolicy;
	// Capacity and Shards are ignored.
	Backend Backend

	// Registry, when non-nil, is used instead of a fresh metric
	// registry, so a Backend owner can serve its own metrics (e.g.
	// router.*) over this server's METRICS verb alongside server.*.
	Registry *obs.Registry

	// MaxConns caps concurrent connections; excess dials receive
	// "ERR busy" and are closed immediately. 0 means unlimited;
	// negative is an error.
	MaxConns int
	// DrainTimeout bounds Close's graceful drain: connections still
	// open after this long are force-closed. 0 applies
	// defaultDrainTimeout; negative is an error.
	DrainTimeout time.Duration

	// Faults injects failures for stress testing; nil in production.
	Faults *Faults

	// idle replaces idleTimeout when positive: the package's tests reap
	// idle connections in milliseconds.
	idle time.Duration
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

	// Connections per codec (the text/binary sniff), the GET/SETs served
	// (all binary) and the batched-flush count: flushes ≪ requests under
	// pipelining.
	connsText   *obs.Counter
	connsBinary *obs.Counter
	requests    *obs.Counter
	flushes     *obs.Counter

	// pings counts PING probes (both codecs). They are deliberately
	// excluded from the request counter so health probing never skews
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

// burstBackend is what the request loop serves through: a burst at a
// time, and Stats for the STATS verb.
type burstBackend interface {
	ServeBatch(ops []Op, res []bool)
	Stats() cache.Stats
}

// engineBackend is the default backend: the in-process sharded cache.
type engineBackend struct{ eng *cache.Sharded }

// ServeBatch serves a burst in order, one shard lock per run of
// same-shard ops; see cache.Sharded.ServeBatch.
func (e engineBackend) ServeBatch(ops []Op, res []bool) { e.eng.ServeBatch(ops, res) }

// Stats merges the per-shard snapshots, each taken under its own lock;
// see Sharded.StatsSnapshot.
func (e engineBackend) Stats() cache.Stats { return e.eng.StatsSnapshot() }

// BatchBackend is implemented by a Backend that serves a burst of
// pipelined requests faster together than one by one (the cluster
// router forwards a burst as one batch per node). The request loop
// serves every burst through ServeBatch; a Backend without it is served
// op by op through Get and Set (opByOp).
type BatchBackend interface {
	Backend
	// ServeBatch serves ops, those of one key in their original order,
	// and stores each op's outcome (hit or stored) in res, which has
	// len(ops). Op.Time is already resolved against the server's
	// virtual clock.
	ServeBatch(ops []Op, res []bool)
}

// opByOp serves a burst through a plain Backend's Get and Set, one op
// at a time.
type opByOp struct{ Backend }

func (b opByOp) ServeBatch(ops []Op, res []bool) {
	for i, op := range ops {
		if op.Set {
			res[i] = b.Set(op.Key, op.Size, op.Time)
		} else {
			res[i] = b.Get(op.Key, op.Size, op.Time)
		}
	}
}

// Server is a TCP cache server.
type Server struct {
	cfg Config
	ln  net.Listener

	// backend serves every burst: Config.Backend, or the in-process
	// sharded cache behind engineBackend. The engine owns all locking
	// (per shard), so the server has no global cache mutex on the
	// request path.
	backend burstBackend
	shards  int // the in-process engine's shard count; 0 behind Config.Backend
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
	if cfg.MaxConns < 0 {
		return nil, fmt.Errorf("server: MaxConns %d is negative", cfg.MaxConns)
	}
	if cfg.DrainTimeout < 0 {
		return nil, fmt.Errorf("server: DrainTimeout %v is negative", cfg.DrainTimeout)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	if cfg.idle <= 0 {
		cfg.idle = idleTimeout
	}
	var engine *cache.Sharded
	var backend burstBackend
	if cfg.Backend != nil {
		if cfg.NewPolicy != nil {
			return nil, errors.New("server: Backend and NewPolicy are mutually exclusive")
		}
		backend = opByOp{cfg.Backend}
		if b, ok := cfg.Backend.(BatchBackend); ok {
			backend = b
		}
	} else {
		if cfg.NewPolicy == nil {
			return nil, errors.New("server: need a NewPolicy shard factory or a Backend")
		}
		if cfg.Capacity <= 0 {
			return nil, errors.New("server: capacity must be positive")
		}
		shards := cfg.Shards
		if shards == 0 {
			shards = 1
		}
		var err error
		engine, err = cache.NewSharded(cfg.Capacity, shards, cfg.NewPolicy)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		backend = engineBackend{engine}
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
		backend: backend,
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

			connsText:   reg.Counter("server.conns_text"),
			connsBinary: reg.Counter("server.conns_binary"),
			requests:    reg.Counter("server.requests_binary"),
			flushes:     reg.Counter("server.flushes"),
			pings:       reg.Counter("server.pings"),
		},
	}
	if engine != nil {
		s.shards = engine.Shards()
		registerCacheObs(engine, reg)
	}
	obs.RegisterRuntime(reg)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// registerCacheObs attaches live metrics to every shard of engine and
// registers them in reg as cache.* totals and cache.shard<i>.*.
func registerCacheObs(engine *cache.Sharded, reg *obs.Registry) {
	cacheObs := &obs.ShardedCacheObs{}
	cacheObs.Init(engine.Shards())
	cacheObs.Register(reg, "cache")
	for i := 0; i < engine.Shards(); i++ {
		engine.SetShardObs(i, cacheObs.Shard(i))
	}
}

// Shards returns the engine's shard count (a power of two), or 0 when
// a Backend replaces the in-process engine.
func (s *Server) Shards() int { return s.shards }

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
func (s *Server) Stats() cache.Stats { return s.backend.Stats() }

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
		t := time.NewTimer(s.cfg.DrainTimeout)
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
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
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

// connIO is one connection's whole serving state, allocated as a single
// block at accept time and reused for every request, so the
// steady-state GET/SET path performs zero heap allocations per
// request — asserted by TestServingPathAllocFree.
// The codecs (text.go, binary.go) are method sets over it.
type connIO struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	met  *serverMetrics

	idle time.Duration // read deadline, armed when a read may block

	// The slices grow on first use and are then reused.
	line  []byte // text: one request line, accumulated across ReadSlice chunks
	out   []byte // the staged reply to a malformed request; STATS/METRICS scratch
	ended bool   // the codec's stream is over: its next decode reports io.EOF

	// Burst scratch, outcomes first: a burst of one touches a single page
	// of the block. Split over two heap objects it cost a depth-1 client
	// 0.3 µs a request in cold lines after every context switch.
	res [burstCap]bool
	ops [burstCap]Op
}

// burstCap bounds how many requests are served as one burst: the
// binary frames the read buffer holds. Their replies fit the reply
// buffer.
const burstCap = readBufBytes / binReqLen

// flush writes the buffered replies to the connection under the write
// deadline and reports whether the peer is still reachable (a reply
// write that failed earlier surfaces here).
func (c *connIO) flush() bool {
	if c.bw.Buffered() > 0 {
		// One clock read per flush, not per reply.
		_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		c.met.flushes.Inc()
	}
	return c.bw.Flush() == nil
}

// send buffers one framed reply; flush decides when bytes hit the wire.
// A reply that does not fit (a large METRICS snapshot) spills to the
// connection inside bufio, so that write gets the write deadline too.
// A failed write is sticky in bufio and surfaces at the next flush.
func (c *connIO) send(p []byte) {
	if len(p) > c.bw.Available() {
		_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	_, _ = c.bw.Write(p) // a copy into the reply buffer; the wire is touched only on a spill
}

// verb is what a codec decoded a request into.
type verb uint8

const (
	verbNone    verb = iota // nothing to answer (a blank text line)
	verbOp                  // binary GET or SET, decoded into an Op
	verbPing                // liveness probe
	verbQuit                // close the connection
	verbStats               // text only
	verbMetrics             // text only
	verbBad                 // malformed; the error reply is staged in connIO.out
	verbTooLong             // text line over maxLineBytes; reply staged likewise
)

// codec is the byte side of a connection: it decodes requests and
// answers PING, and knows nothing of what a request means. Both
// implementations wrap the connection's *connIO and keep their state in
// it. Only binCodec yields verbOp, so binCodec.reply frames every
// GET/SET outcome.
type codec interface {
	// next blocks for the next request and decodes it: a verbOp into
	// *op, anything else into its verb. A request the codec does not
	// carry, or cannot parse, is verbBad with the reply staged in
	// connIO.out; a codec that cannot find the next request boundary
	// after it ends the stream. The idle deadline is armed only when
	// the read can block.
	next(op *Op) (verb, error)
	// more reports whether another whole request is already buffered,
	// so that next will not block.
	more() bool
	// pong answers a PING.
	pong()
}

// handle serves one connection: it sniffs the protocol from the first
// byte (the binary request magic can never start a text command),
// picks the codec and runs the request loop for the connection's
// lifetime.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.removeConn(conn)
	defer conn.Close()
	var r io.Reader = conn
	if f := s.cfg.Faults; f != nil && (f.ReadErr != nil || f.ReadFrames > 0) {
		r = &faultReader{r: r, inject: f.ReadErr, limit: f.ReadFrames * binReqLen}
	}
	c := &connIO{
		conn: conn,
		br:   bufio.NewReaderSize(r, readBufBytes),
		bw:   bufio.NewWriterSize(conn, replyBufBytes),
		met:  &s.met,
		idle: s.cfg.idle,
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.idle))
	first, err := c.br.Peek(1)
	if err != nil {
		s.classifyReadErr(err)
		return
	}
	cd, conns := codec(textCodec{c}), s.met.connsText
	if first[0] == binMagicReq {
		cd, conns = binCodec{c}, s.met.connsBinary
	}
	conns.Inc()
	s.serveConn(c, cd)
}

// serveConn is the request loop of every connection. It owns what a
// request means; cd owns the bytes. Each iteration gathers a burst — the
// GET/SETs already buffered when the first of them is read; the loop
// never waits for more, so a strict request-response client gets bursts
// of one — serves it, then answers the control verb or malformed
// request that ended it, if one did. Replies are flushed when the read
// side has drained: the client is waiting on them. Every request of
// either codec crosses this loop; TestServingPathAllocFree holds
// GET/SET through it to 0 allocs/op.
func (s *Server) serveConn(c *connIO, cd codec) {
	for {
		n := 0
		v, err := cd.next(&c.ops[0])
		for v == verbOp {
			if n++; n == burstCap || !cd.more() {
				break
			}
			v, err = cd.next(&c.ops[n])
		}
		if n > 0 {
			s.met.requests.Add(int64(n))
			s.serveBurst(c, c.ops[:n])
		}
		if err != nil {
			s.classifyReadErr(err)
			c.flush()
			return
		}
		switch v {
		case verbPing:
			// No cache work and no request accounting: health probing
			// must not skew traffic reconciliation.
			s.met.pings.Inc()
			s.preReply()
			cd.pong()
		case verbStats:
			st := s.backend.Stats()
			s.preReply()
			textCodec{c}.stats(st)
		case verbMetrics:
			// The snapshot is handed to the writer as a unit and flushed
			// at once: a write fault kills the connection instead of
			// leaving the client a torn half-snapshot.
			kvs := s.metrics.Snapshot()
			s.preReply()
			textCodec{c}.metrics(kvs)
			if !c.flush() {
				return
			}
		case verbBad:
			s.met.badRequests.Inc()
			c.send(c.out)
		case verbTooLong:
			s.met.lineTooLong.Inc()
			c.send(c.out)
		case verbQuit:
			c.flush()
			return
		}
		if !cd.more() && !c.flush() {
			return
		}
	}
}

// serveBurst serves ops as one unit of work and frames their replies:
// one ServeBatch call, then Faults.PreReply per op. The burst is timed
// once. Its replies are flushed together, so every op's reply is ready
// when the last one is staged, and each op takes that service time as
// its latency sample (at depth 1 that is the op's own).
func (s *Server) serveBurst(c *connIO, ops []Op) {
	t0 := time.Now()
	for i := range ops {
		ops[i].Time = s.now(ops[i].Time)
	}
	res := c.res[:len(ops)]
	s.backend.ServeBatch(ops, res)
	var sets int64
	for i, op := range ops {
		if op.Set {
			sets++
		}
		s.preReply()
		binCodec{c}.reply(op, res[i])
	}
	d := time.Since(t0).Nanoseconds()
	s.met.getLatency.ObserveN(d, int64(len(ops))-sets)
	s.met.setLatency.ObserveN(d, sets)
}

// preReply runs the fault-injection hook that precedes every reply.
func (s *Server) preReply() {
	if f := s.cfg.Faults; f != nil && f.PreReply != nil {
		f.PreReply()
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
