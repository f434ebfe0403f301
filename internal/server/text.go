// Text protocol: one LF-terminated line per request, whitespace-separated
// fields, case-insensitive verbs (the package comment lists them).

package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
	"raven/internal/trace"
)

// maxLineBytes bounds one protocol line; longer lines are answered
// with "ERR line too long" and the connection is closed.
const maxLineBytes = 1 << 16

// errLineTooLong marks a text request line exceeding maxLineBytes.
var errLineTooLong = errors.New("server: line too long")

// textCodec is the text protocol's codec over a connection's state. It
// carries GET, SET, PING, QUIT, STATS and METRICS. A malformed line is
// answered with an "ERR ..." line and the stream goes on, because the
// next line boundary is still known; only an oversized line ends it.
// Requests are parsed in place from the connection's reusable line
// buffer and replies are built in the reply buffer's own free space.
type textCodec struct{ *connIO }

// more looks for a line end in what is buffered: a partial line is not
// a request yet.
func (t textCodec) more() bool {
	p, _ := t.br.Peek(t.br.Buffered()) // what is already buffered: no read can happen
	return bytes.IndexByte(p, '\n') >= 0
}

// readLine reads one LF-terminated request line into t.line, reusing
// its backing array. The idle deadline is armed whenever the read may
// block (nothing buffered), so a slow-loris that trickles bytes is
// still reaped. A final unterminated line before EOF is served once,
// matching bufio.Scanner.
func (t textCodec) readLine() ([]byte, error) {
	if t.ended {
		return nil, io.EOF
	}
	t.line = t.line[:0]
	for {
		if t.br.Buffered() == 0 && t.idle > 0 {
			// Armed only when the read can block, so one clock read per burst.
			_ = t.conn.SetReadDeadline(time.Now().Add(t.idle))
		}
		chunk, err := t.br.ReadSlice('\n') // mid-burst lines come out of the buffer
		if len(t.line)+len(chunk) > maxLineBytes {
			return nil, errLineTooLong
		}
		t.line = append(t.line, chunk...) // grows to the longest line once, then is reused
		switch err {
		case nil:
			return t.line, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(t.line) > 0 {
				t.ended = true
				return t.line, nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

func (t textCodec) next(op *Op) (verb, error) {
	line, err := t.readLine()
	if err != nil {
		if err != errLineTooLong { // readLine returns it bare
			return verbNone, err
		}
		// Tell the client why before closing instead of silently
		// dropping the connection.
		t.ended = true
		t.out = append(t.out[:0], "ERR line too long\n"...)
		return verbTooLong, nil
	}
	t.fields = splitFields(line, t.fields[:0])
	fields := t.fields
	if len(fields) == 0 {
		return verbNone, nil
	}
	name := fields[0]
	switch {
	case verbIs(name, "GET"), verbIs(name, "SET"):
		set := verbIs(name, "SET")
		if len(fields) != 3 && len(fields) != 4 {
			if set {
				return t.bad("ERR want: SET <key> <size> [time]\n")
			}
			return t.bad("ERR want: GET <key> <size> [time]\n")
		}
		key, ok1 := parseUint(fields[1])
		size, ok2 := parseUint(fields[2])
		if !ok1 || !ok2 || size == 0 || size > math.MaxInt64 {
			return t.bad("ERR bad key or size\n")
		}
		ts := binNoTime // no [time]: the virtual clock
		if len(fields) == 4 {
			// A negative or otherwise malformed explicit timestamp is
			// rejected outright — it must not silently fall back to the
			// virtual clock and masquerade as a clockless client.
			u, ok := parseUint(fields[3])
			if !ok || u > math.MaxInt64 {
				return t.bad("ERR bad time\n")
			}
			ts = int64(u)
		}
		*op = Op{Set: set, Key: trace.Key(key), Size: int64(size), Time: ts}
		return verbOp, nil
	case verbIs(name, "PING"):
		return verbPing, nil
	case verbIs(name, "QUIT"):
		return verbQuit, nil
	case verbIs(name, "STATS"):
		return verbStats, nil
	case verbIs(name, "METRICS"):
		return verbMetrics, nil
	}
	t.out = fmt.Appendf(t.out[:0], "ERR unknown command %q\n", name)
	return verbBad, nil
}

// bad stages the reply to a malformed line.
func (t textCodec) bad(reply string) (verb, error) {
	t.out = append(t.out[:0], reply...)
	return verbBad, nil
}

func (t textCodec) reply(op Op, ok bool) {
	word := "MISS "
	switch {
	case op.Set && ok:
		word = "STORED "
	case op.Set:
		word = "NOSTORED "
	case ok:
		word = "HIT "
	}
	b := append(t.bw.AvailableBuffer(), word...)
	b = strconv.AppendInt(b, op.Size, 10)
	t.send(append(b, '\n'))
}

func (t textCodec) pong() { t.send(textPong) }

var textPong = []byte("PONG\n")

func (t textCodec) stats(st cache.Stats) {
	t.out = append(t.out[:0], "STATS"...)
	for _, v := range [...]int64{st.Requests, st.Hits, st.ReqBytes, st.HitBytes} {
		t.out = strconv.AppendInt(append(t.out, ' '), v, 10)
	}
	t.send(append(t.out, '\n'))
}

func (t textCodec) metrics(kvs []obs.KV) {
	t.out = append(t.out[:0], "METRICS "...) // the scratch grows to one snapshot, then is reused
	t.out = strconv.AppendInt(t.out, int64(len(kvs)), 10)
	t.out = append(t.out, '\n')
	for _, kv := range kvs {
		t.out = append(t.out, kv.Name...)
		t.out = append(t.out, ' ')
		t.out = strconv.AppendInt(t.out, kv.Value, 10)
		t.out = append(t.out, '\n')
	}
	t.send(t.out)
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
			dst = append(dst, line[start:i]) // field views into reused scratch, which grows to the widest line once
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
