// Binary protocol: a length-prefixed, fixed-frame wire format
// (memcached-style) served alongside the text protocol on the same
// port. The first byte of a connection selects the protocol: no text
// command starts with binMagicReq, so one Peek routes the connection
// for its whole lifetime.
//
// Request frame (binReqLen = 26 bytes, little-endian):
//
//	magic(1)=0x80  verb(1)  key(8)  size(8)  time(8)
//
// Reply frame (binRespLen = 10 bytes, little-endian):
//
//	magic(1)=0x81  status(1)  size(8)
//
// time is a signed trace timestamp; binNoTime (-1) means "clockless
// client, use the server's virtual clock". Any other negative time is
// a malformed frame. Verbs and statuses are single bytes; statuses
// >= 0x80 are errors, after which the server closes the connection
// (framing can no longer be trusted).
//
// Pipelining: clients may send any number of frames without waiting
// for replies. Replies come back in request order; the server batches
// them and flushes once per drained read burst, so a pipelined batch
// costs one write syscall instead of one per reply.
package server

import (
	"encoding/binary"
	"io"
	"time"

	"raven/internal/trace"
)

// Frame geometry.
const (
	binMagicReq  = 0x80 // first byte of every request frame
	binMagicResp = 0x81 // first byte of every reply frame
	binReqLen    = 26   // magic(1) verb(1) key(8) size(8) time(8)
	binRespLen   = 10   // magic(1) status(1) size(8)
)

// binNoTime in a frame's time field requests the server's virtual
// clock (the binary equivalent of omitting [time] in the text
// protocol). More-negative times are rejected as malformed.
const binNoTime int64 = -1

// Request verbs. GETQ is the quiet get: a hit is answered with a
// binStatusHitQ frame carrying the key, a miss produces no reply frame
// at all — miss-heavy pipelines pay reply bytes only for hits. PING is
// a no-op answered with binStatusPong; it doubles as the router's
// health probe and as the client-side barrier that flushes a trailing
// run of quiet gets (every earlier quiet get without a reply by the
// time PONG arrives is known to have missed).
const (
	binVerbGet  byte = 0x01
	binVerbSet  byte = 0x02
	binVerbQuit byte = 0x03
	binVerbGetQ byte = 0x04
	binVerbPing byte = 0x05
)

// Reply statuses. Statuses >= binStatusErr are errors and terminate
// the connection. binStatusHitQ's 8-byte payload is the request KEY
// (not the size): quiet replies are sparse, so the key is what lets a
// pipelining client match a reply to the right in-flight quiet get.
const (
	binStatusHit       byte = 0x00
	binStatusMiss      byte = 0x01
	binStatusStored    byte = 0x02
	binStatusNotStored byte = 0x03
	binStatusHitQ      byte = 0x04
	binStatusPong      byte = 0x05

	binStatusErr      byte = 0x80
	binStatusBadVerb  byte = 0x80 // unknown verb
	binStatusBadFrame byte = 0x81 // bad magic, non-positive size, or time < -1
)

// putBinReq encodes one request frame.
func putBinReq(dst *[binReqLen]byte, verb byte, key trace.Key, size, ts int64) {
	dst[0] = binMagicReq
	dst[1] = verb
	binary.LittleEndian.PutUint64(dst[2:10], uint64(key))
	binary.LittleEndian.PutUint64(dst[10:18], uint64(size))
	binary.LittleEndian.PutUint64(dst[18:26], uint64(ts))
}

// putBinResp encodes one reply frame.
func putBinResp(dst *[binRespLen]byte, status byte, size int64) {
	dst[0] = binMagicResp
	dst[1] = status
	binary.LittleEndian.PutUint64(dst[2:10], uint64(size))
}

// burstCap bounds how many requests are served as one burst: the
// frames a default read buffer holds. Their replies fill a fifth of
// the reply buffer, so a burst never forces a mid-burst flush.
const burstCap = defaultReadBuf / binReqLen

// parseOp decodes the GET/SET/GETQ request frame p. ok is false for
// any other verb and for a malformed frame (bad magic, non-positive
// size, time < -1).
func parseOp(p []byte) (op Op, ok bool) {
	verb := p[1]
	op = Op{
		Set:   verb == binVerbSet,
		Quiet: verb == binVerbGetQ,
		Key:   trace.Key(binary.LittleEndian.Uint64(p[2:10])),
		Size:  int64(binary.LittleEndian.Uint64(p[10:18])),
		Time:  int64(binary.LittleEndian.Uint64(p[18:26])),
	}
	ok = p[0] == binMagicReq && (op.Set || op.Quiet || verb == binVerbGet) && op.Size > 0 && op.Time >= binNoTime
	return op, ok
}

// handleBinary serves one binary-protocol connection burst by burst. A
// burst is the GET/SET frames already buffered on the connection when
// the first of them is read: the handler never waits for more, so a
// strict request-response client gets bursts of one. A backend that
// implements BatchBackend is handed the burst in one call; the
// in-process engine serves it op by op. Either way CacheDelay,
// OriginDelay and Faults.PreReply apply per op, and replies are written
// in request order and flushed once per drained read burst. The burst
// scratch lives for the connection's lifetime, so the steady-state
// GET/SET loop performs zero heap allocations per request
// (TestServingPathAllocFree).
func (s *Server) handleBinary(c *connIO) {
	// One block, outcomes first: a burst of one touches a single page of
	// it. As two allocations the scratch cost a depth-1 client 0.3 µs a
	// request in cold lines after every context switch (kv_hit_heavy).
	buf := new(struct {
		res [burstCap]bool
		ops [burstCap]Op
	})
	ops, res := buf.ops[:0], buf.res[:]
	for {
		// Arm the idle deadline only when the next header read can
		// block; mid-burst frames are already buffered.
		if c.br.Buffered() < binReqLen && c.idle > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.idle))
		}
		if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
			s.classifyReadErr(err)
			return
		}
		if c.hdr[0] != binMagicReq {
			s.met.badRequests.Inc()
			s.binError(c, binStatusBadFrame)
			return
		}
		switch c.hdr[1] {
		case binVerbGet, binVerbSet, binVerbGetQ:
			op, ok := parseOp(c.hdr[:])
			if !ok {
				s.met.badRequests.Inc()
				s.binError(c, binStatusBadFrame)
				return
			}
			// A PING, a QUIT or a malformed frame ends the burst; it
			// stays buffered and the next iteration deals with it.
			ops = append(ops[:0], op)
			for len(ops) < burstCap && c.br.Buffered() >= binReqLen {
				p, _ := c.br.Peek(binReqLen)
				if op, ok = parseOp(p); !ok {
					break
				}
				ops = append(ops, op)
				_, _ = c.br.Discard(binReqLen)
			}
			s.met.requestsBinary.Add(int64(len(ops)))
			// The latency histograms time each op from its own start on
			// the engine, and from the burst's start behind a
			// BatchBackend: there the burst is the unit of work, and an
			// op's reply is ready when the burst's round trip is.
			var t0 time.Time
			if s.batch != nil {
				t0 = time.Now()
				for i := range ops {
					ops[i].Time = s.now(ops[i].Time)
				}
				s.batch.ServeBatch(ops, res[:len(ops)])
			}
			for i, op := range ops {
				ok := res[i]
				if s.batch == nil {
					t0 = time.Now()
					if op.Set {
						ok = s.serveSet(op.Key, op.Size, op.Time)
					} else {
						ok = s.serve(op.Key, op.Size, op.Time)
					}
				}
				if s.cfg.CacheDelay > 0 {
					time.Sleep(s.cfg.CacheDelay)
				}
				status, payload, hist := binStatusMiss, op.Size, s.met.getLatency
				switch {
				case op.Set:
					status, hist = binStatusNotStored, s.met.setLatency
					if ok {
						status = binStatusStored
					}
				case !ok:
					if s.cfg.OriginDelay > 0 {
						time.Sleep(s.cfg.OriginDelay)
					}
					if op.Quiet {
						// Quiet miss: no reply frame at all. The latency
						// sample is still recorded — the work happened.
						hist.Observe(time.Since(t0).Nanoseconds())
						continue
					}
				case op.Quiet:
					// A quiet hit echoes the key, not the size, so a
					// pipelining client can match the sparse reply to
					// the right in-flight quiet get.
					status, payload = binStatusHitQ, int64(op.Key)
				default:
					status = binStatusHit
				}
				if f := s.cfg.Faults; f != nil && f.PreReply != nil {
					f.PreReply()
				}
				putBinResp(&c.rep, status, payload)
				_, err := c.bw.Write(c.rep[:])
				hist.Observe(time.Since(t0).Nanoseconds())
				if err != nil || c.bw.Available() < binRespLen && !c.flush() {
					return
				}
			}
		case binVerbPing:
			// Health probe / pipeline barrier: no cache work, no
			// request accounting — PONG must reconcile out of the
			// cache/request totals the chaos test compares.
			s.met.pings.Inc()
			if f := s.cfg.Faults; f != nil && f.PreReply != nil {
				f.PreReply()
			}
			putBinResp(&c.rep, binStatusPong, 0)
			if _, err := c.bw.Write(c.rep[:]); err != nil {
				return
			}
		case binVerbQuit:
			c.flush()
			return
		default:
			s.met.badRequests.Inc()
			s.binError(c, binStatusBadVerb)
			return
		}
		// Flush once the read side has drained below a full frame: the
		// client is (or will be) blocked on these replies.
		if c.br.Buffered() < binReqLen || c.bw.Available() < binRespLen {
			if !c.flush() {
				return
			}
		}
	}
}

// binError sends one error reply best-effort; the caller then closes
// the connection (an unparseable frame means framing is lost).
func (s *Server) binError(c *connIO, status byte) {
	if c.write > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.write))
	}
	putBinResp(&c.rep, status, 0)
	_, _ = c.bw.Write(c.rep[:])
	c.flush()
}
