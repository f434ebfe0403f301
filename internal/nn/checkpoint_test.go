package nn

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func ckptBytes(t *testing.T, n *Net) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	n := guardNet()
	n.Version = 7
	got, err := LoadCheckpoint(bytes.NewReader(ckptBytes(t, n)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 {
		t.Errorf("Version = %d, want 7", got.Version)
	}
	if !bytes.Equal(netBytes(t, got), netBytes(t, n)) {
		t.Error("v2 round trip did not preserve weights bit-identically")
	}
}

// TestCheckpointCorruptionMatrix is the satellite test: every
// corruption in the matrix must yield an error wrapping ErrCorrupt
// and a nil network — never a non-finite or silently-wrong net.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	good := ckptBytes(t, guardNet())
	flip := func(b []byte, off int) []byte {
		c := append([]byte(nil), b...)
		c[off] ^= 0xFF
		return c
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"truncated header", good[:ckptHeaderLen-2]},
		{"truncated payload", good[:len(good)/2]},
		{"truncated trailer", good[:len(good)-1]},
		{"flipped payload byte", flip(good, ckptHeaderLen+3)},
		{"flipped CRC byte", flip(good, len(good)-2)},
		{"flipped length byte", flip(good, len(ckptMagic)+2)},
		{"wrong version byte", flip(good, len(ckptMagic))},
		{"magic only", []byte(ckptMagic)},
		{"no magic: text", []byte("time key size\n1 2 3\n")},
		{"no magic: bare gob payload", good[ckptHeaderLen : len(good)-4]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := LoadCheckpoint(bytes.NewReader(tc.data))
			if n != nil {
				t.Fatalf("corrupt stream returned a network: %+v", n.Cfg)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
		})
	}
}

// TestCheckpointRejectsNonFiniteWeights: a checkpoint carrying NaN or
// Inf weights passes the CRC (it was written faithfully) but must
// still be rejected by weight validation.
func TestCheckpointRejectsNonFiniteWeights(t *testing.T) {
	for _, poison := range []float64{math.NaN(), math.Inf(1)} {
		n := guardNet()
		n.params[1].W[0] = poison
		got, err := LoadCheckpoint(bytes.NewReader(ckptBytes(t, n)))
		if got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("poison %v: got net=%v err=%v, want nil + ErrCorrupt", poison, got != nil, err)
		}
	}
}

// TestNetFromWireRejectsCorruptWire: a payload that decodes but does
// not describe the network it claims to is rejected (non-finite weights
// are TestCheckpointRejectsNonFiniteWeights).
func TestNetFromWireRejectsCorruptWire(t *testing.T) {
	n := guardNet()

	t.Run("duplicate tensor", func(t *testing.T) {
		w := n.wire()
		w.Tensors = append(w.Tensors, w.Tensors[0])
		if got, err := netFromWire(w); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got net=%v err=%v, want nil + ErrCorrupt", got != nil, err)
		}
	})

	t.Run("unknown tensor", func(t *testing.T) {
		w := n.wire()
		w.Tensors[0].Name = "no-such-tensor"
		if got, err := netFromWire(w); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got net=%v err=%v, want nil + ErrCorrupt", got != nil, err)
		}
	})

	t.Run("missing tensor", func(t *testing.T) {
		w := n.wire()
		w.Tensors = w.Tensors[:len(w.Tensors)-1]
		if got, err := netFromWire(w); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got net=%v err=%v, want nil + ErrCorrupt", got != nil, err)
		}
	})

	t.Run("wrong tensor size", func(t *testing.T) {
		w := n.wire()
		w.Tensors[0].W = w.Tensors[0].W[:1]
		if got, err := netFromWire(w); got != nil || !errors.Is(err, ErrCorrupt) {
			t.Errorf("got net=%v err=%v, want nil + ErrCorrupt", got != nil, err)
		}
	})
}
