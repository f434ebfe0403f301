package nn

import (
	"bytes"
	"testing"

	"raven/internal/stats"
)

func TestCheckpointRoundTripAllCells(t *testing.T) {
	net := NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 7, Seed: 3})
	// Give it distinctive weights via a tiny fit.
	g := stats.NewRNG(1)
	data := []Sequence{{Taus: []float64{5, 6, 7}, Size: 10, Survival: 2}}
	for i := 0; i < 3; i++ {
		data = append(data, Sequence{Taus: []float64{g.Float64() * 10}, Size: 5})
	}
	net.Fit(data, TrainConfig{MaxEpochs: 2, Patience: 1, Seed: 2})

	var buf bytes.Buffer
	if err := net.Checkpoint(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Version != net.Version {
		t.Errorf("version %d, want %d", got.Version, net.Version)
	}
	if got.Cfg != net.Cfg {
		t.Errorf("config %+v, want %+v", got.Cfg, net.Cfg)
	}
	// Predictions must match bit for bit.
	h1 := net.EmbedHistoryInto(nil, []float64{3, 4, 5})
	h2 := got.EmbedHistoryInto(nil, []float64{3, 4, 5})
	m1 := predictOne(net, h1, 100, 2)
	m2 := predictOne(got, h2, 100, 2)
	for k := range m1.W {
		if m1.W[k] != m2.W[k] || m1.Mu[k] != m2.Mu[k] || m1.S[k] != m2.S[k] {
			t.Fatal("mixture mismatch after round trip")
		}
	}
}

func TestLoadedNetCanKeepTraining(t *testing.T) {
	net := NewNet(Config{Hidden: 6, MLPHidden: 8, K: 3, TimeScale: 1, Seed: 5})
	var buf bytes.Buffer
	if err := net.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res := got.Fit([]Sequence{
		{Taus: []float64{1, 1, 1}, Size: 10},
		{Taus: []float64{2, 2}, Size: 10, Survival: 1},
	}, TrainConfig{MaxEpochs: 2, Patience: 1, Seed: 1})
	if res.Epochs == 0 {
		t.Error("loaded net failed to train")
	}
}
