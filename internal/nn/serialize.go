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

// netFromWire validates a decoded wire form and builds the network.
func netFromWire(wire netWire) (*Net, error) {
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
