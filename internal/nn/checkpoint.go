package nn

// Checkpoint wire format v2.
//
// A bare gob payload (the retired v1 format) that is truncated or
// bit-flipped either fails to decode with an unhelpful gob error or —
// worse — decodes into a plausible but wrong network. v2 wraps the gob
// payload in an integrity envelope so corruption is detected before
// any weight is installed:
//
//	offset  size  field
//	0       7     magic "RVNCKPT"
//	7       1     format version (2)
//	8       4     payload length, big-endian uint32
//	12      n     gob-encoded netWire payload
//	12+n    4     CRC32 (IEEE), big-endian, over bytes [0, 12+n)
//
// The CRC covers the header too, so a flipped version byte or length
// is caught by the same check as a flipped payload byte. The decoded
// architecture and weights additionally pass netFromWire's validation
// (dimensions that describe the stream, finite weights of the right
// shapes) — a checkpoint load that returns nil error never yields a
// non-finite network, and a hostile architecture never sizes an
// allocation.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt is the typed error every checkpoint/stream validation
// failure wraps: bad magic trailers, CRC mismatches, truncation,
// unknown format versions, an architecture the weights do not fit, and
// non-finite or misshapen weights.
// Callers test with errors.Is(err, nn.ErrCorrupt) and fall back to an
// older generation or a fresh network.
var ErrCorrupt = errors.New("corrupt model stream")

const (
	ckptMagic   = "RVNCKPT"
	ckptVersion = 2
	// ckptHeaderLen is magic + version byte + payload length.
	ckptHeaderLen = len(ckptMagic) + 1 + 4
	ckptMaxLen    = 1 << 30 // sanity bound on the declared payload length
)

// Checkpoint writes the network in wire format v2 (format-version
// header, gob payload, CRC32 trailer). It persists architecture,
// weights, and Version but no optimizer state.
func (n *Net) Checkpoint(w io.Writer) error {
	buf, err := sealWire(n.wire())
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: checkpoint write: %w", err)
	}
	return nil
}

// sealWire gob-encodes wire and wraps it in the v2 envelope.
func sealWire(wire netWire) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		return nil, fmt.Errorf("nn: checkpoint encode: %w", err)
	}
	buf := make([]byte, 0, ckptHeaderLen+payload.Len()+4)
	buf = append(buf, ckptMagic...)
	buf = append(buf, ckptVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// LoadCheckpoint reads a network from a v2 checkpoint stream. Any
// integrity or validation failure — missing magic, truncation, CRC
// mismatch, unknown version, an architecture that does not describe the
// weights, non-finite weights, empty stream — returns an error wrapping
// ErrCorrupt.
func LoadCheckpoint(r io.Reader) (*Net, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: checkpoint read: %v: %w", err, ErrCorrupt)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("nn: empty checkpoint: %w", ErrCorrupt)
	}
	if !bytes.HasPrefix(data, []byte(ckptMagic)) {
		return nil, fmt.Errorf("nn: not a checkpoint (no %q magic): %w", ckptMagic, ErrCorrupt)
	}
	if len(data) < ckptHeaderLen+4 {
		return nil, fmt.Errorf("nn: truncated checkpoint header (%d bytes): %w", len(data), ErrCorrupt)
	}
	if v := data[len(ckptMagic)]; v != ckptVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d: %w", v, ErrCorrupt)
	}
	plen := int64(binary.BigEndian.Uint32(data[len(ckptMagic)+1 : ckptHeaderLen]))
	if plen > ckptMaxLen || int64(len(data)) != int64(ckptHeaderLen)+plen+4 {
		return nil, fmt.Errorf("nn: checkpoint length mismatch (declared %d, have %d bytes): %w",
			plen, len(data), ErrCorrupt)
	}
	body := data[:ckptHeaderLen+int(plen)]
	want := binary.BigEndian.Uint32(data[len(body):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("nn: checkpoint CRC mismatch (got %08x, want %08x): %w",
			got, want, ErrCorrupt)
	}
	var wire netWire
	if err := gob.NewDecoder(bytes.NewReader(body[ckptHeaderLen:])).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: checkpoint decode: %v: %w", err, ErrCorrupt)
	}
	return netFromWire(wire)
}
