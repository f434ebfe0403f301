package nn

import (
	"fmt"
	"math"
)

// netWire is the serialized form of a Net (Checkpoint and
// LoadCheckpoint carry it). Optimizer state is not persisted; a loaded
// network can keep training with a fresh optimizer. §6.1.1 motivates
// serialization: the MDN can be trained on a dedicated server and
// shipped to tens or thousands of cache servers, amortizing training
// cost across a cluster.
type netWire struct {
	Cfg     Config
	Version int
	Tensors []tensorWire
}

type tensorWire struct {
	Name string
	W    []float64
}

// wire builds the serializable form of the network.
func (n *Net) wire() netWire {
	w := netWire{Cfg: n.Cfg, Version: n.Version}
	for _, p := range n.params {
		w.Tensors = append(w.Tensors, tensorWire{Name: p.Name, W: p.W})
	}
	return w
}

// fits reports whether NewNet(c) allocates exactly have weights, the
// number the stream carries. H², M² and K·M are each below that count,
// so bounding them by have first keeps the sum from overflowing, and a
// stream that passes sizes nothing larger than itself.
func (c Config) fits(have int) bool {
	H, M, K := c.Hidden, c.MLPHidden, c.K
	if H < 1 || M < 1 || K < 1 || H > have/H || M > have/M || K > have/M {
		return false
	}
	gru := 3 * (H + H*H + H) // one input feature
	mlp := (H+2)*M + M + M*M + M
	heads := 3 * (M*K + K)
	return gru+mlp+heads == have
}

// netFromWire validates a decoded wire form and builds the network.
// The architecture comes from outside the program: it is checked
// against what the stream holds before NewNet sizes anything by it.
func netFromWire(wire netWire) (*Net, error) {
	wire.Cfg.defaults()
	if ts := wire.Cfg.TimeScale; !(ts > 0) || math.IsInf(ts, 1) {
		return nil, fmt.Errorf("nn: time scale %v in stream: %w", ts, ErrCorrupt)
	}
	have := 0
	for _, t := range wire.Tensors {
		have += len(t.W)
	}
	if !wire.Cfg.fits(have) {
		return nil, fmt.Errorf("nn: architecture %+v does not describe the stream's %d weights: %w",
			wire.Cfg, have, ErrCorrupt)
	}
	n := NewNet(wire.Cfg)
	n.Version = wire.Version
	byName := make(map[string]*Param, len(n.params))
	for _, p := range n.params {
		byName[p.Name] = p
	}
	seen := make(map[string]bool, len(wire.Tensors))
	for _, t := range wire.Tensors {
		if seen[t.Name] {
			return nil, fmt.Errorf("nn: duplicate tensor %q in stream: %w", t.Name, ErrCorrupt)
		}
		seen[t.Name] = true
		p, ok := byName[t.Name]
		if !ok {
			return nil, fmt.Errorf("nn: unknown tensor %q in stream: %w", t.Name, ErrCorrupt)
		}
		if len(t.W) != len(p.W) {
			return nil, fmt.Errorf("nn: tensor %q has %d weights, want %d: %w",
				t.Name, len(t.W), len(p.W), ErrCorrupt)
		}
		for i, v := range t.W {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: tensor %q weight %d is non-finite: %w",
					t.Name, i, ErrCorrupt)
			}
		}
		copy(p.W, t.W)
		delete(byName, t.Name)
	}
	if len(byName) != 0 {
		return nil, fmt.Errorf("nn: stream missing %d tensors: %w", len(byName), ErrCorrupt)
	}
	return n, nil
}
