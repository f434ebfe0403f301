package nn

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
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

// TestCheckpointRejectsHostileArchitecture: the architecture in a
// CRC-valid envelope (another build's file, or a crafted one) is
// checked before anything is sized by it — a negative or absurd
// dimension used to panic in make or exhaust memory inside NewNet.
func TestCheckpointRejectsHostileArchitecture(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative Hidden", func(c *Config) { c.Hidden = -1 }},
		{"negative MLPHidden", func(c *Config) { c.MLPHidden = -2 }},
		{"negative K", func(c *Config) { c.K = -3 }},
		{"huge Hidden", func(c *Config) { c.Hidden = 1 << 40 }},
		{"huge MLPHidden", func(c *Config) { c.MLPHidden = 1 << 40 }},
		{"huge K", func(c *Config) { c.K = 1 << 40 }},
		{"overflowing Hidden", func(c *Config) { c.Hidden = math.MaxInt }},
		{"Hidden disagrees with the weights", func(c *Config) { c.Hidden++ }},
		{"K disagrees with the weights", func(c *Config) { c.K-- }},
		{"negative TimeScale", func(c *Config) { c.TimeScale = -1 }},
		{"NaN TimeScale", func(c *Config) { c.TimeScale = math.NaN() }},
		{"infinite TimeScale", func(c *Config) { c.TimeScale = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := guardNet().wire()
			tc.mutate(&wire.Cfg)
			data, err := sealWire(wire)
			if err != nil {
				t.Fatal(err)
			}
			n, err := LoadCheckpoint(bytes.NewReader(data))
			if n != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got net=%v err=%v, want nil + ErrCorrupt", n != nil, err)
			}
		})
	}
}

// parentGRUWeights is writeWeights' SHA-256 of the net behind
// testdata/parent_gru.ckpt, and parentGRUMixture the bits of one
// prediction on it (the embedding of interarrivals 3, 4, 5; size 100,
// age 2), both printed by the program that wrote the file at commit
// ebe4571 — the last one whose nn.Config had an RNN field, which is in
// the file's gob stream and must be skipped silently.
const parentGRUWeights = "9d63a3d5d371f875f96466ff3db5c26e43d9ef95bf8d178518698881ecbc42e3"

var parentGRUMixture = [3][3]uint64{ // per component: W, Mu, S
	{0x3fd57af09044561d, 0xc000b7b1ea114c84, 0x3ff1e4244ad1a3f5},
	{0x3fd54181fc13366f, 0xbfe70b8d77a95876, 0x3feeed5591a887a0},
	{0x3fd5438d73a87375, 0x3fe350406ce444a8, 0x3ff09c824722931b},
}

// TestParentCheckpointLoads: a checkpoint a parent-commit server wrote
// still loads, to the same weights and the same prediction.
func TestParentCheckpointLoads(t *testing.T) {
	f, err := os.Open("testdata/parent_gru.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := LoadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Config{Hidden: 4, MLPHidden: 6, K: 3, TimeScale: 7, Seed: 3}); n.Cfg != want {
		t.Errorf("config %+v, want %+v", n.Cfg, want)
	}
	h := sha256.New()
	writeWeights(h, n)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != parentGRUWeights {
		t.Errorf("weights hash %s, want %s", got, parentGRUWeights)
	}
	m := predictOne(n, n.EmbedHistoryInto(nil, []float64{3, 4, 5}), 100, 2)
	for k, want := range parentGRUMixture {
		got := [3]uint64{math.Float64bits(m.W[k]), math.Float64bits(m.Mu[k]), math.Float64bits(m.S[k])}
		if got != want {
			t.Errorf("component %d: bits %#x, want %#x", k, got, want)
		}
	}
}
