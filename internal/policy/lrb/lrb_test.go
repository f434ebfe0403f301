package lrb

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/lru"
	"raven/internal/trace"
)

func TestLRBTrainsAndOutperformsLRU(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 400, Requests: 60000, Interarrival: trace.Uniform, Seed: 3,
	})
	p := New(Config{MemoryWindow: tr.Duration() / 6, Seed: 1})
	c := cache.New(80, p)
	lc := cache.New(80, lru.New())
	for _, r := range tr.Reqs {
		c.Handle(r)
		lc.Handle(r)
	}
	if !p.Trained() {
		t.Fatal("LRB never trained")
	}
	if p.Trainings < 2 {
		t.Errorf("expected multiple trainings, got %d", p.Trainings)
	}
	if c.StatsSnapshot().OHR() <= lc.StatsSnapshot().OHR() {
		t.Errorf("LRB OHR %.4f should beat LRU %.4f on a recency-unfriendly trace",
			c.StatsSnapshot().OHR(), lc.StatsSnapshot().OHR())
	}
}

func TestLRBFallsBackBeforeTraining(t *testing.T) {
	p := New(Config{MemoryWindow: 1 << 40, Seed: 1})
	c := cache.New(2, p)
	c.Handle(cache.Request{Time: 1, Key: 1, Size: 1})
	c.Handle(cache.Request{Time: 2, Key: 2, Size: 1})
	c.Handle(cache.Request{Time: 3, Key: 1, Size: 1}) // 1 most recent
	c.Handle(cache.Request{Time: 4, Key: 3, Size: 1}) // evict by recency
	if c.Contains(2) {
		t.Error("pre-training fallback should evict by recency")
	}
	if p.Trained() {
		t.Error("should not have trained")
	}
}

func TestLRBPanicsWithoutWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestLRBBoundedTrainingBuffer(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{Objects: 200, Requests: 30000, Interarrival: trace.Poisson, Seed: 5})
	p := New(Config{MemoryWindow: tr.Duration() / 10, MaxTrainSamples: 500, Seed: 2})
	c := cache.New(50, p)
	for _, r := range tr.Reqs {
		c.Handle(r)
	}
	if len(p.trainX) > 500 {
		t.Errorf("training buffer %d exceeds cap 500", len(p.trainX))
	}
}

// Trained reports whether a model is active (for tests).
func (p *LRB) Trained() bool { return p.model != nil }
