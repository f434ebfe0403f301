package lhr

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/lru"
	"raven/internal/trace"
)

func TestLHRBeatsLRUOnZipfPoisson(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 500, Requests: 50000, Interarrival: trace.Poisson, Seed: 1,
	})
	p := New(GoalOHR, 3)
	c := cache.New(60, p)
	lc := cache.New(60, lru.New())
	for _, r := range tr.Reqs {
		c.Handle(r)
		lc.Handle(r)
	}
	if c.StatsSnapshot().OHR() <= lc.StatsSnapshot().OHR() {
		t.Errorf("LHR OHR %.4f should beat LRU %.4f on Poisson (its model assumption)",
			c.StatsSnapshot().OHR(), lc.StatsSnapshot().OHR())
	}
}

func TestLHREvictsColdObjects(t *testing.T) {
	p := New(GoalBHR, 1)
	c := cache.New(3, p)
	// Key 1 hot (many requests), key 2 cold (one), key 3 hot.
	times := []struct {
		tm int64
		k  cache.Key
	}{
		{1, 1}, {2, 2}, {3, 3}, {4, 1}, {5, 3}, {6, 1}, {7, 3}, {8, 1},
	}
	for _, x := range times {
		c.Handle(cache.Request{Time: x.tm, Key: x.k, Size: 1})
	}
	c.Handle(cache.Request{Time: 9, Key: 4, Size: 1})
	if c.Contains(2) {
		t.Error("cold object should be evicted first")
	}
}

func TestLHRAdmissionRefusesColdNewcomers(t *testing.T) {
	p := New(GoalOHR, 2, WithAdmission())
	if p.Name() != "lhr-adm" {
		t.Errorf("name %q", p.Name())
	}
	c := cache.New(100, p)
	// Build a cache of hot objects.
	for round := 0; round < 30; round++ {
		for k := cache.Key(1); k <= 100; k++ {
			c.Handle(cache.Request{Time: int64(round*100 + int(k)), Key: k, Size: 1})
		}
	}
	rejBefore := c.StatsSnapshot().Rejections
	// A burst of brand-new singletons should face rejections.
	for i := 0; i < 200; i++ {
		c.Handle(cache.Request{Time: int64(10000 + i), Key: cache.Key(1000 + i), Size: 1})
	}
	if c.StatsSnapshot().Rejections == rejBefore {
		t.Error("admission control never rejected cold newcomers")
	}
}

func TestLHRGoalOHRPrefersSmall(t *testing.T) {
	p := New(GoalOHR, 4)
	c := cache.New(30, p)
	// Two equally-hot objects, one large one small, plus pressure.
	for round := 0; round < 10; round++ {
		c.Handle(cache.Request{Time: int64(round * 10), Key: 1, Size: 20})
		c.Handle(cache.Request{Time: int64(round*10 + 1), Key: 2, Size: 5})
	}
	c.Handle(cache.Request{Time: 1000, Key: 3, Size: 10})
	if c.Contains(1) && !c.Contains(2) {
		t.Error("OHR goal should keep the small object over the large one")
	}
}
