// Binary protocol: a fixed-frame wire format (memcached-style).
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
// client, use the server's virtual clock". Any other negative time, and
// any time above binMaxTime (1<<62), is a malformed frame: a timestamp
// that close to math.MaxInt64 would let the clockless requests after it
// tick the virtual clock past it and wrap negative. Verbs and statuses are single bytes; statuses
// >= 0x80 are errors, after which the server closes the connection
// (framing can no longer be trusted).
package server

import (
	"encoding/binary"
	"errors"
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
// clock. More-negative times are rejected as malformed, and so are times
// above binMaxTime, which leaves the clock 2^62 ticks of headroom.
const (
	binNoTime  int64 = -1
	binMaxTime int64 = 1 << 62
)

// Request verbs. PING is a no-op answered with binStatusPong: the
// router's health probe. Verb and status 0x04 are unassigned.
const (
	binVerbGet  byte = 0x01
	binVerbSet  byte = 0x02
	binVerbQuit byte = 0x03
	binVerbPing byte = 0x05
)

// Reply statuses. Statuses >= binStatusErr are errors and terminate
// the connection.
const (
	binStatusHit       byte = 0x00
	binStatusMiss      byte = 0x01
	binStatusStored    byte = 0x02
	binStatusNotStored byte = 0x03
	binStatusPong      byte = 0x05

	binStatusErr      byte = 0x80
	binStatusBadVerb  byte = 0x80 // unknown verb
	binStatusBadFrame byte = 0x81 // bad magic, non-positive size, time < -1 or time > binMaxTime
)

// putBinReq encodes one request frame.
func putBinReq(dst *[binReqLen]byte, verb byte, key trace.Key, size, ts int64) {
	dst[0] = binMagicReq
	dst[1] = verb
	binary.LittleEndian.PutUint64(dst[2:10], uint64(key))
	binary.LittleEndian.PutUint64(dst[10:18], uint64(size))
	binary.LittleEndian.PutUint64(dst[18:26], uint64(ts))
}

// appendBinResp appends one reply frame to dst.
func appendBinResp(dst []byte, status byte, size int64) []byte {
	dst = append(dst, binMagicResp, status) // into the reply buffer's free space (or the staged-reply scratch)
	return binary.LittleEndian.AppendUint64(dst, uint64(size))
}

// binCodec is the binary protocol's codec over a connection's state.
// It carries GET, SET, PING and QUIT. Any other verb is answered
// with binStatusBadVerb and a malformed frame (bad magic, non-positive
// size, time < -1 or > binMaxTime) with binStatusBadFrame; after either the stream is
// ended, because an unparseable frame means framing is lost.
type binCodec struct{ *connIO }

func (b binCodec) more() bool { return b.br.Buffered() >= binReqLen }

func (b binCodec) next(op *Op) (verb, error) {
	if b.ended {
		return verbNone, io.EOF
	}
	if !b.more() {
		// Armed only when the read can block, so one clock read per burst.
		_ = b.conn.SetReadDeadline(time.Now().Add(b.idle))
	}
	// Mid-burst frames are already in the buffer.
	p, err := b.br.Peek(binReqLen)
	if err != nil {
		if errors.Is(err, io.EOF) && len(p) > 0 {
			err = io.ErrUnexpectedEOF // a truncated frame is a read error, not a clean close
		}
		return verbNone, err
	}
	magic, vb := p[0], p[1]
	*op = Op{
		Set:  vb == binVerbSet,
		Key:  trace.Key(binary.LittleEndian.Uint64(p[2:10])),
		Size: int64(binary.LittleEndian.Uint64(p[10:18])),
		Time: int64(binary.LittleEndian.Uint64(p[18:26])),
	}
	_, _ = b.br.Discard(binReqLen) // cannot fail: Peek has just shown the bytes are buffered
	status := binStatusBadFrame
	if magic == binMagicReq {
		switch vb {
		case binVerbGet, binVerbSet:
			if op.Size > 0 && op.Time >= binNoTime && op.Time <= binMaxTime {
				return verbOp, nil
			}
		case binVerbPing:
			return verbPing, nil
		case binVerbQuit:
			return verbQuit, nil
		default:
			status = binStatusBadVerb
		}
	}
	b.ended = true
	b.out = appendBinResp(b.out[:0], status, 0)
	return verbBad, nil
}

func (b binCodec) reply(op Op, ok bool) {
	status := binStatusMiss
	switch {
	case op.Set && ok:
		status = binStatusStored
	case op.Set:
		status = binStatusNotStored
	case ok:
		status = binStatusHit
	}
	b.send(appendBinResp(b.bw.AvailableBuffer(), status, op.Size))
}

func (b binCodec) pong() {
	b.send(appendBinResp(b.bw.AvailableBuffer(), binStatusPong, 0))
}
