package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// The binary wire format of ravencached/ravenrouter, restated here so
// the load generator checks every reply byte itself instead of going
// through server.Client (which reports only hit/stored and hides the
// echoed size). Request: magic 0x80, verb, key, size, time (26 bytes,
// little-endian). Reply: magic 0x81, status, size (10 bytes).
const (
	reqLen  = 26
	respLen = 10

	magicReq  = 0x80
	magicResp = 0x81

	verbGet  = 0x01
	verbSet  = 0x02
	verbQuit = 0x03

	statusHit       = 0x00
	statusMiss      = 0x01
	statusStored    = 0x02
	statusNotStored = 0x03
)

// replyTimeout bounds one blocked reply read. Inline fits stall the
// connection for seconds by design; that is latency, not failure, so
// the bound only has to catch a server that died.
const replyTimeout = 60 * time.Second

// stallNs is the gap from which a blocked reply counts as a stall (and
// a policy observe span counts as an inline fit).
const stallNs = 50 * int64(time.Millisecond)

// conn is one binary-protocol connection: the single caller of the
// closed loop.
type conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer

	req [reqLen]byte
	rep [respLen]byte

	// whileWaiting, when set, is called every waitSliceEvery for as long
	// as a reply keeps the caller waiting: the set-up reads the host's
	// speed there while an inline fit holds the connection.
	whileWaiting func()
}

// waitSliceEvery is how often a blocked reply read wakes up to call
// conn.whileWaiting.
const waitSliceEvery = 100 * time.Millisecond

// await blocks until a whole reply is buffered or replyTimeout passes.
func (c *conn) await() error {
	deadline := time.Now().Add(replyTimeout)
	for {
		wake := deadline
		if c.whileWaiting != nil {
			wake = time.Now().Add(waitSliceEvery)
		}
		_ = c.c.SetReadDeadline(wake)
		// Peek consumes nothing, so a read cut short by the deadline
		// is simply asked again.
		_, err := c.r.Peek(respLen)
		var ne net.Error
		if err == nil || c.whileWaiting == nil || !errors.As(err, &ne) || !ne.Timeout() || !time.Now().Before(deadline) {
			return err
		}
		c.whileWaiting()
	}
}

func dialBinary(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 16<<10), w: bufio.NewWriterSize(c, 16<<10)}, nil
}

// close says QUIT and closes; errors are dropped because the replay
// already checked every reply it was owed.
func (c *conn) close() {
	c.req[0], c.req[1] = magicReq, verbQuit
	_ = c.c.SetDeadline(time.Now().Add(time.Second))
	_, _ = c.w.Write(c.req[:])
	_ = c.w.Flush()
	_ = c.c.Close()
}

func (c *conn) put(o *ops, i int) error {
	c.req[0] = magicReq
	c.req[1] = verbGet
	if o.set[i] {
		c.req[1] = verbSet
	}
	binary.LittleEndian.PutUint64(c.req[2:10], uint64(o.key[i]))
	binary.LittleEndian.PutUint64(c.req[10:18], uint64(o.size[i]))
	binary.LittleEndian.PutUint64(c.req[18:26], uint64(o.time[i]))
	_, err := c.w.Write(c.req[:])
	return err
}

// phaseResult is what one replayed slice of the op stream produced.
type phaseResult struct {
	ops, gets, sets   int64
	hits              int64
	getBytes, hitByte int64
	failed            int64
	wall              time.Duration
	stalls            int64 // replies the caller waited >= stallNs for
	stallMaxNs        int64
	rtts              []int64 // depth 1 only: raw round-trip times, ns
}

func (p *phaseResult) add(q phaseResult) {
	p.ops += q.ops
	p.gets += q.gets
	p.sets += q.sets
	p.hits += q.hits
	p.getBytes += q.getBytes
	p.hitByte += q.hitByte
	p.failed += q.failed
	p.wall += q.wall
	p.stalls += q.stalls
	p.stallMaxNs = max(p.stallMaxNs, q.stallMaxNs)
	p.rtts = append(p.rtts, q.rtts...)
}

// take reads the reply owed to op i and checks it: magic, a status that
// answers the verb, and the echoed size. A violation is a failed op and
// ends the replay, because framing can no longer be trusted.
func (c *conn) take(o *ops, i int, res *phaseResult) error {
	if c.r.Buffered() < respLen {
		// The read may block: time the wait.
		t0 := time.Now()
		err := c.await()
		if w := time.Since(t0).Nanoseconds(); w >= stallNs {
			res.stalls++
			if w > res.stallMaxNs {
				res.stallMaxNs = w
			}
		}
		if err != nil {
			return fmt.Errorf("read reply: %w", err)
		}
	}
	if _, err := io.ReadFull(c.r, c.rep[:]); err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	if c.rep[0] != magicResp {
		return fmt.Errorf("bad reply magic 0x%02x", c.rep[0])
	}
	status := c.rep[1]
	size := int64(binary.LittleEndian.Uint64(c.rep[2:10]))
	if size != int64(o.size[i]) {
		return fmt.Errorf("reply echoes size %d, request had %d", size, o.size[i])
	}
	res.ops++
	if o.set[i] {
		res.sets++
		if status != statusStored && status != statusNotStored {
			return fmt.Errorf("SET answered with status 0x%02x", status)
		}
		return nil
	}
	res.gets++
	res.getBytes += int64(o.size[i])
	switch status {
	case statusHit:
		res.hits++
		res.hitByte += int64(o.size[i])
	case statusMiss:
	default:
		return fmt.Errorf("GET answered with status 0x%02x", status)
	}
	return nil
}

// roundTrips replays ops [lo, hi) strictly request→reply (depth 1, one
// caller), checks every reply and records every round-trip time.
// onSend and onReply, when set, bracket op i's round trip (the traced
// run uses them to publish the request id and record the client span).
func (c *conn) roundTrips(o *ops, lo, hi int, onSend, onReply func(i int)) (phaseResult, error) {
	res := phaseResult{rtts: make([]int64, 0, hi-lo)}
	start := time.Now()
	for i := lo; i < hi; i++ {
		if onSend != nil {
			onSend(i)
		}
		t0 := time.Now()
		_ = c.c.SetWriteDeadline(t0.Add(replyTimeout))
		err := c.put(o, i)
		if err == nil {
			err = c.w.Flush()
		}
		if err == nil {
			err = c.take(o, i, &res)
		}
		if err != nil {
			res.failed = int64(hi-lo) - res.ops
			res.wall = time.Since(start)
			return res, fmt.Errorf("op %d: %w", i, err)
		}
		res.rtts = append(res.rtts, time.Since(t0).Nanoseconds())
		if onReply != nil {
			onReply(i)
		}
	}
	res.wall = time.Since(start)
	return res, nil
}

// pipeline replays ops [lo, hi) keeping up to depth in flight and
// checks the replies in order. The window is refilled, in one flush,
// whenever it drains to half depth — the batching discipline of
// server.Client.Pipeline.
func (c *conn) pipeline(o *ops, lo, hi, depth int) (phaseResult, error) {
	var res phaseResult
	start := time.Now()
	next, done := lo, lo
	var err error
	for done < hi && err == nil {
		if inflight := next - done; next < hi && inflight <= depth/2 {
			_ = c.c.SetWriteDeadline(time.Now().Add(replyTimeout))
			for next < hi && next-done < depth && err == nil {
				err = c.put(o, next)
				next++
			}
			if err == nil {
				err = c.w.Flush()
			}
			if err != nil {
				break
			}
		}
		err = c.take(o, done, &res)
		done++
	}
	res.wall = time.Since(start)
	if err != nil {
		res.failed = int64(hi-lo) - res.ops
		err = fmt.Errorf("op %d: %w", lo+int(res.ops), err)
	}
	return res, err
}

// textQuery sends one text-protocol command on a fresh connection and
// returns the reply lines: one for STATS, the n announced ones for
// METRICS.
func textQuery(addr, verb string) ([]string, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", verb, addr, err)
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(replyTimeout))
	if _, err := io.WriteString(c, verb+"\nQUIT\n"); err != nil {
		return nil, fmt.Errorf("%s %s: %w", verb, addr, err)
	}
	raw, err := io.ReadAll(c)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", verb, addr, err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], verb) {
		return nil, fmt.Errorf("%s %s: unexpected reply %q", verb, addr, string(raw))
	}
	return lines, nil
}

// fetchMetrics returns a process's METRICS snapshot as name → value.
func fetchMetrics(addr string) (map[string]int64, error) {
	lines, err := textQuery(addr, "METRICS")
	if err != nil {
		return nil, err
	}
	head := strings.Fields(lines[0])
	if len(head) != 2 {
		return nil, fmt.Errorf("METRICS %s: bad header %q", addr, lines[0])
	}
	n, err := strconv.Atoi(head[1])
	if err != nil || n != len(lines)-1 {
		return nil, fmt.Errorf("METRICS %s: header announces %q lines, got %d", addr, head[1], len(lines)-1)
	}
	m := make(map[string]int64, n)
	for _, l := range lines[1:] {
		kv := strings.Fields(l)
		if len(kv) != 2 {
			return nil, fmt.Errorf("METRICS %s: bad line %q", addr, l)
		}
		v, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("METRICS %s: bad value in %q: %w", addr, l, err)
		}
		m[kv[0]] = v
	}
	return m, nil
}

// fetchStats returns the four STATS numbers: requests, hits, request
// bytes, hit bytes.
func fetchStats(addr string) ([4]int64, error) {
	var out [4]int64
	lines, err := textQuery(addr, "STATS")
	if err != nil {
		return out, err
	}
	f := strings.Fields(lines[0])
	if len(f) != 5 {
		return out, fmt.Errorf("STATS %s: unexpected reply %q", addr, lines[0])
	}
	for i := range out {
		if out[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return out, fmt.Errorf("STATS %s: bad value in %q: %w", addr, lines[0], err)
		}
	}
	return out, nil
}
