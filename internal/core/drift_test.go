package core

import (
	"testing"
	"unsafe"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
	"raven/internal/trace"
)

func TestKSStatistic(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{1, 2, 3, 4, 5}
	if d := ksStatistic(append([]float64(nil), a...), append([]float64(nil), b...)); d > 0.21 {
		t.Errorf("identical samples KS %v, want ~0", d)
	}
	c := []float64{100, 101, 102, 103, 104}
	if d := ksStatistic(append([]float64(nil), a...), c); d < 0.99 {
		t.Errorf("disjoint samples KS %v, want 1", d)
	}
}

func TestDriftDetectorFirstWindowTrains(t *testing.T) {
	d := newDriftDetector(0.1, 100)
	for i := 0; i < 100; i++ {
		d.observe(10)
	}
	if !d.shouldRetrain() {
		t.Error("first window must always retrain")
	}
}

func TestDriftDetectorSkipsStableWorkload(t *testing.T) {
	d := newDriftDetector(0.1, 500)
	g := stats.NewRNG(1)
	fill := func() {
		for i := 0; i < 500; i++ {
			d.observe(100 + 10*g.NormFloat64())
		}
	}
	fill()
	d.shouldRetrain() // window 1: trains
	fill()
	if d.shouldRetrain() {
		t.Error("identical distribution should skip retraining")
	}
	// Window 3: drastically different interarrivals.
	for i := 0; i < 500; i++ {
		d.observe(10000 + 100*g.NormFloat64())
	}
	if !d.shouldRetrain() {
		t.Error("a large distribution shift must trigger retraining")
	}
}

func TestRavenDriftSkipsRetraining(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 12000, Interarrival: trace.Poisson, Seed: 5,
	})
	r := New(Config{
		TrainWindow:     tr.Duration() / 8,
		DriftThreshold:  0.08,
		MaxTrainObjects: 200,
		Net:             nn.Config{Hidden: 4, MLPHidden: 6, K: 2},
		Train:           nn.TrainConfig{MaxEpochs: 3, Patience: 1},
		ResidualSamples: 10,
		Seed:            7,
	})
	c := cache.New(40, r)
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	var trained, skipped int
	for _, ts := range r.TrainStats {
		if ts.Skipped {
			skipped++
		} else {
			trained++
		}
	}
	if trained == 0 {
		t.Fatal("no window trained")
	}
	if skipped == 0 {
		t.Error("stationary workload should have skipped at least one retraining")
	}
}

// TestRavenFootprint pins the §6.1.1 footprint to the record
// layouts it is derived from, so growing a record shows up here (and in
// EXPERIMENTS.md "Overhead") instead of silently.
func TestRavenFootprint(t *testing.T) {
	if RecordBytes != 48 || RingBytes != 8+8*historyLen || unsafe.Sizeof(resRec{}) != 40 {
		t.Errorf("record layouts: core %d B, ring %d B, side %d B; want 48, %d, 40",
			RecordBytes, RingBytes, unsafe.Sizeof(resRec{}), 8+8*historyLen)
	}
	r := New(Config{TrainWindow: 1, Net: nn.Config{Hidden: 16}})
	if got, want := r.MetadataBytesPerObject(), int64(48+40+136+8*16); got != want {
		t.Errorf("MetadataBytesPerObject = %d at hidden 16, want %d", got, want)
	}
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 1})
	if got, want := r.MetadataBytesPerObject(), int64(48+40+136+8*8); got != want {
		t.Errorf("MetadataBytesPerObject = %d under a hidden-8 model, want %d", got, want)
	}
}
