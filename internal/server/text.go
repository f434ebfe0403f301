// Text protocol: the control channel. One LF-terminated line per
// request, a case-insensitive verb first (the package comment lists
// them). Cache operations are binary frames only.

package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"raven/internal/cache"
	"raven/internal/obs"
)

// maxLineBytes bounds one protocol line; longer lines are answered
// with "ERR line too long" and the connection is closed.
const maxLineBytes = 1 << 16

// errLineTooLong marks a text request line exceeding maxLineBytes.
var errLineTooLong = errors.New("server: line too long")

// textCodec is the text protocol's codec over a connection's state. It
// carries PING, QUIT, STATS and METRICS; any other line, GET and SET
// included, is answered "ERR unknown command" and the stream goes on,
// because the next line boundary is still known. Only an oversized line
// ends it. Requests are parsed in place from the connection's reusable
// line buffer.
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
		if t.br.Buffered() == 0 {
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

// next never yields verbOp: cache operations travel as binary frames.
func (t textCodec) next(*Op) (verb, error) {
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
	name := firstField(line)
	if len(name) == 0 {
		return verbNone, nil
	}
	switch {
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

// firstField returns line's first field, a view into line: the verb.
// Fields are separated by ASCII whitespace; the verbs take no arguments,
// so the rest of the line is ignored.
func firstField(line []byte) []byte {
	const space = " \t\r\n"
	line = bytes.TrimLeft(line, space)
	if i := bytes.IndexAny(line, space); i >= 0 {
		return line[:i]
	}
	return line
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
