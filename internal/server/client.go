package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"raven/internal/cache"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Client replays traces against a Server over TCP and measures the
// round trips Table 3 prices (Replay). It survives a faulty server or
// network: every request runs under an optional deadline, and Replay
// transparently reconnects with exponential backoff when a request
// fails.
//
// A client speaks the binary protocol; Pipeline keeps up to N requests
// in flight on the one connection. STATS and METRICS are text verbs:
// FetchMetrics asks for them on a connection of its own.
type Client struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// Reusable wire buffers: the binary request/reply frames and the
	// encoding scratch a burst is built in, so a warmed-up round trip
	// allocates nothing on the client side either.
	frame   [binReqLen]byte
	rep     [binRespLen]byte
	scratch []byte

	// Timeout bounds each request round trip (write + reply read);
	// 0 means no deadline.
	Timeout time.Duration
	// MaxRetries is how many reconnect-and-resend attempts Replay
	// makes per request before giving up (0 = fail on first error).
	MaxRetries int
	// RetryBackoff is the initial backoff before a retry, doubling per
	// attempt up to 1s. 0 applies a 10ms default.
	RetryBackoff time.Duration

	// Retries and Reconnects count recovery events across the
	// client's lifetime; Replay copies them into its result.
	Retries    int64
	Reconnects int64
}

// Dial connects to a server. The server picks the codec from the first
// byte a connection sends, so no handshake is needed.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// armDeadline applies the per-request deadline to the connection (or
// clears it when Timeout is zero).
func (c *Client) armDeadline() {
	var dl time.Time
	if c.Timeout > 0 {
		// One clock read per burst, not one per op.
		dl = time.Now().Add(c.Timeout)
	}
	_ = c.conn.SetDeadline(dl)
}

// reconnect replaces the connection with a fresh dial to the same
// address.
func (c *Client) reconnect() error {
	_ = c.conn.Close()
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("client: redial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.r.Reset(conn)
	c.w.Reset(conn)
	c.Reconnects++
	return nil
}

// Close terminates the connection. A flush failure is reported unless
// closing the socket fails first.
func (c *Client) Close() error {
	c.armDeadline()
	putBinReq(&c.frame, binVerbQuit, 0, 0, 0)
	_, _ = c.w.Write(c.frame[:])
	flushErr := c.w.Flush()
	if err := c.conn.Close(); err != nil {
		return err
	}
	return flushErr
}

// appendOp appends op's request frame to buf and returns it.
func (c *Client) appendOp(buf []byte, op Op) []byte {
	verb := binVerbGet
	if op.Set {
		verb = binVerbSet
	}
	putBinReq(&c.frame, verb, op.Key, op.Size, op.Time)
	// Appends into the client's reused scratch, which grows to the largest burst once.
	return append(buf, c.frame[:]...)
}

// Send writes ops as one burst: every request in one write and one
// flush, under one deadline. Recv must follow before the connection is
// used for anything else.
func (c *Client) Send(ops []Op) error {
	c.armDeadline()
	c.scratch = c.scratch[:0]
	for _, op := range ops {
		c.scratch = c.appendOp(c.scratch, op)
	}
	// One write and one flush per node per burst.
	if _, err := c.w.Write(c.scratch); err != nil {
		return err
	}
	return c.w.Flush()
}

// readReply reads one reply frame as a status and the size it echoes.
// Error statuses (>= 0x80) are surfaced as errors — the server closes
// the connection after sending one. The deadline is re-armed whenever
// the read may block, so long pipelined runs are bounded per reply, not
// per batch.
func (c *Client) readReply() (byte, int64, error) {
	if c.r.Buffered() < binRespLen {
		c.armDeadline()
	}
	if _, err := io.ReadFull(c.r, c.rep[:]); err != nil {
		return 0, 0, err
	}
	if c.rep[0] != binMagicResp {
		return 0, 0, fmt.Errorf("client: bad reply magic 0x%02x", c.rep[0])
	}
	status := c.rep[1]
	if status >= binStatusErr {
		return 0, 0, fmt.Errorf("client: server error status 0x%02x", status)
	}
	return status, int64(binary.LittleEndian.Uint64(c.rep[2:10])), nil
}

// settle reads the reply to op — the server replies once per request,
// in request order — and reports whether it was positive (HIT or
// STORED). The reply must be a status op can have and echo op's size.
func (c *Client) settle(op Op) (bool, error) {
	status, size, err := c.readReply()
	if err != nil {
		return false, err
	}
	pos, neg := binStatusHit, binStatusMiss
	if op.Set {
		pos, neg = binStatusStored, binStatusNotStored
	}
	if status != pos && status != neg || size != op.Size {
		return false, fmt.Errorf("client: reply status 0x%02x size %d does not answer the op in flight", status, size)
	}
	return status == pos, nil
}

// Recv reads the replies to the burst Send wrote, storing each op's
// outcome (HIT or STORED) in res. Replies arrive in request order, so
// on an error the ops settled so far are a prefix of the burst; Recv
// returns its length, and the connection must not be reused.
func (c *Client) Recv(ops []Op, res []bool) (int, error) {
	for i, op := range ops {
		ok, err := c.settle(op)
		if err != nil {
			return i, err
		}
		res[i] = ok
	}
	return len(ops), nil
}

// Ping checks liveness with one PING round trip. The server answers
// without touching the cache, so probes never perturb the traffic
// statistics the cluster tier reconciles.
func (c *Client) Ping() error {
	c.armDeadline()
	putBinReq(&c.frame, binVerbPing, 0, 0, 0)
	_, _ = c.w.Write(c.frame[:]) // a copy into the write buffer; Flush reports the error
	if err := c.w.Flush(); err != nil {
		return err
	}
	status, _, err := c.readReply()
	if err == nil && status != binStatusPong {
		err = fmt.Errorf("client: reply status 0x%02x does not answer a PING", status)
	}
	return err
}

// Get requests one object and reports whether it hit. The round trip
// runs under the client's Timeout; it does not retry (see getRetry /
// Replay for the self-healing path).
func (c *Client) Get(key trace.Key, size int64, ts int64) (bool, error) {
	return c.roundTrip(Op{Key: key, Size: size, Time: ts})
}

// Set stores one object on the server (SET command) and reports
// whether it was stored. The round trip runs under the client's
// Timeout; it does not retry.
func (c *Client) Set(key trace.Key, size int64, ts int64) (bool, error) {
	return c.roundTrip(Op{Set: true, Key: key, Size: size, Time: ts})
}

// roundTrip is a burst of one.
func (c *Client) roundTrip(op Op) (bool, error) {
	ops, res := [1]Op{op}, [1]bool{}
	if err := c.Send(ops[:]); err != nil {
		return false, err
	}
	_, err := c.Recv(ops[:], res[:])
	return res[0], err
}

// getRetry is Get plus recovery: on failure it reconnects with
// exponential backoff and resends, up to MaxRetries attempts. A
// request the server sheds with "ERR busy" lands here too — the
// backoff gives the server room to drain before the retry.
func (c *Client) getRetry(key trace.Key, size int64, ts int64) (bool, error) {
	return c.withRetry(func() (bool, error) { return c.Get(key, size, ts) })
}

// withRetry runs one request, reconnecting with exponential backoff
// and resending on failure, up to MaxRetries attempts.
func (c *Client) withRetry(do func() (bool, error)) (bool, error) {
	ok, err := do()
	if err == nil {
		return ok, nil
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for attempt := 0; attempt < c.MaxRetries; attempt++ {
		c.Retries++
		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		if rerr := c.reconnect(); rerr != nil {
			err = rerr
			continue
		}
		ok, err = do()
		if err == nil {
			return ok, nil
		}
	}
	return false, fmt.Errorf("client: giving up after %d retries: %w", c.MaxRetries, err)
}

// FetchMetrics returns addr's METRICS snapshot as a name → value map.
// METRICS is a text verb, so it dials a short-lived text connection of
// its own and says METRICS then QUIT. timeout bounds the whole exchange
// (0 = no deadline).
func FetchMetrics(addr string, timeout time.Duration) (map[string]int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := io.WriteString(conn, "METRICS\nQUIT\n"); err != nil {
		return nil, err
	}
	r := bufio.NewReader(conn)
	header, err := r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != "METRICS" {
		return nil, fmt.Errorf("client: unexpected METRICS header %q", strings.TrimSpace(header))
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("client: bad METRICS count %q", fields[1])
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		kv := strings.Fields(line)
		if len(kv) != 2 {
			return nil, fmt.Errorf("client: bad METRICS line %q", strings.TrimSpace(line))
		}
		v, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("client: bad METRICS value %q: %w", strings.TrimSpace(line), err)
		}
		out[kv[0]] = v
	}
	return out, nil
}

// ReplayResult aggregates a replay's measurements.
type ReplayResult struct {
	// Stats holds the lookup counters (Requests, Hits, ReqBytes,
	// HitBytes), counted from the replies; the engine-side fields stay 0.
	Stats cache.Stats

	// Retries and Reconnects count the recovery events the replay
	// needed to complete (0 on a healthy server).
	Retries    int64
	Reconnects int64

	// Latency is each request's latency, in trace order: its measured
	// round trip plus the network model's ServiceTime(hit, size).
	Latency []time.Duration
	// MaxWire is the longest measured round trip. A stall the server
	// took inline (a training fit) shows here, unscaled.
	MaxWire time.Duration
	// Curve samples the cumulative hit ratios over time (Fig. 12).
	Curve []CurvePoint

	Wall time.Duration
}

// CurvePoint is one hit-ratio-over-time sample.
type CurvePoint struct {
	Requests int
	OHR      float64
	BHR      float64
}

// Replay sends every request of tr in order and prices each with model:
// the measured round trip plus model.ServiceTime(hit, size), the §5.1.4
// testbed delays the simulator charges (sim.Run). curvePoints > 0
// records the hit-ratio trajectory. Failed requests are retried with
// reconnect-and-backoff up to the client's MaxRetries, so a replay
// survives induced faults and transient shedding.
func (c *Client) Replay(tr *trace.Trace, curvePoints int, model *sim.NetModel) (*ReplayResult, error) {
	res := &ReplayResult{Latency: make([]time.Duration, 0, tr.Len())}
	every := 0
	if curvePoints > 0 {
		every = max(tr.Len()/curvePoints, 1)
	}
	st := &res.Stats
	startRetries, startReconnects := c.Retries, c.Reconnects
	start := time.Now()
	for i, req := range tr.Reqs {
		t0 := time.Now()
		hit, err := c.getRetry(req.Key, req.Size, req.Time)
		if err != nil {
			return nil, fmt.Errorf("client: request %d: %w", i, err)
		}
		wire := time.Since(t0)
		res.MaxWire = max(res.MaxWire, wire)
		res.Latency = append(res.Latency, wire+model.ServiceTime(hit, req.Size))
		st.Requests++
		st.ReqBytes += req.Size
		if hit {
			st.Hits++
			st.HitBytes += req.Size
		}
		if every > 0 && (i+1)%every == 0 {
			res.Curve = append(res.Curve, CurvePoint{Requests: i + 1, OHR: st.OHR(), BHR: st.BHR()})
		}
	}
	res.Wall = time.Since(start)
	res.Retries = c.Retries - startRetries
	res.Reconnects = c.Reconnects - startReconnects
	return res, nil
}

// Op is one pipelined operation: a GET by default, a SET when Set is
// true. Time < 0 lets the server's virtual clock stand in for a trace
// timestamp. It is the engine's batch op, so a burst reaches
// cache.Sharded.ServeBatch without a copy.
type Op = cache.Op

// PipelineStats summarizes one Pipeline run.
type PipelineStats struct {
	Requests int
	Hits     int // positive GET replies
	Stored   int // positive SET replies
	Wall     time.Duration
	// Per-request latency percentiles, measured from the moment a
	// request is enqueued (so they include client-side batching).
	P50Ns float64
	P99Ns float64
}

// ReqPerSec returns the run's throughput.
func (p *PipelineStats) ReqPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Requests) / p.Wall.Seconds()
}

// Pipeline issues ops keeping up to depth requests in flight on the
// connection. Replies come back one per request in request order, so
// the in-flight window is ops[st.Requests:next]. Requests are batched:
// the window is refilled (and flushed in one write) whenever it drops
// to half depth, which pairs with the server's one-flush-per-burst
// reply batching. depth <= 1 degenerates to strict request-response.
func (c *Client) Pipeline(ops []Op, depth int) (PipelineStats, error) {
	if depth < 1 {
		depth = 1
	}
	var st PipelineStats
	sent := make([]int64, len(ops)) // enqueue times, ns
	lat := make([]float64, 0, len(ops))
	next := 0
	start := time.Now()

	for st.Requests < len(ops) {
		if inflight := next - st.Requests; next < len(ops) && (inflight == 0 || inflight <= depth/2) {
			lo, now := next, time.Now().UnixNano()
			for ; next < len(ops) && next-st.Requests < depth; next++ {
				sent[next] = now
			}
			if err := c.Send(ops[lo:next]); err != nil {
				return st, fmt.Errorf("client: pipeline enqueue %d: %w", lo, err)
			}
		}
		i := st.Requests
		ok, err := c.settle(ops[i])
		if err != nil {
			return st, fmt.Errorf("client: pipeline reply %d: %w", i, err)
		}
		lat = append(lat, float64(time.Now().UnixNano()-sent[i]))
		if ok {
			if ops[i].Set {
				st.Stored++
			} else {
				st.Hits++
			}
		}
		st.Requests++
	}
	st.Wall = time.Since(start)
	sort.Float64s(lat)
	st.P50Ns = latPercentile(lat, 50)
	st.P99Ns = latPercentile(lat, 99)
	return st, nil
}

// latPercentile returns the p-th percentile of sorted samples.
func latPercentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
