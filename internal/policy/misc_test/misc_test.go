// Package misc_test exercises the smaller baseline policies (Random,
// Hyperbolic, LHD, AdaptSize) through the cache engine on shared
// workloads.
package misc_test

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/adaptsize"
	"raven/internal/policy/hyperbolic"
	"raven/internal/policy/lhd"
	"raven/internal/policy/lru"
	"raven/internal/policy/random"
	"raven/internal/trace"
)

func zipfTrace(seed int64) *trace.Trace {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 40000, Interarrival: trace.Poisson, Seed: seed,
	})
	tr.AnnotateNext()
	return tr
}

func ohr(t *testing.T, p cache.Policy, tr *trace.Trace, capacity int64) float64 {
	t.Helper()
	c := cache.New(capacity, p)
	for _, r := range tr.Reqs {
		c.Handle(r)
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("%s: capacity violated", p.Name())
	}
	return c.StatsSnapshot().OHR()
}

func TestRandomIsWorseThanLRUOnZipf(t *testing.T) {
	tr := zipfTrace(1)
	r := ohr(t, random.New(1), tr, 50)
	l := ohr(t, lru.New(), tr, 50)
	if r > l+0.05 {
		t.Errorf("random OHR %.4f should not beat LRU %.4f by much", r, l)
	}
	if r < 0.02 {
		t.Errorf("random OHR %.4f implausibly low", r)
	}
}

func TestHyperbolicBeatsRandom(t *testing.T) {
	tr := zipfTrace(2)
	h := ohr(t, hyperbolic.New(1), tr, 50)
	r := ohr(t, random.New(1), tr, 50)
	if h <= r {
		t.Errorf("hyperbolic %.4f should beat random %.4f", h, r)
	}
}

func TestLHDRunsAndReconfigures(t *testing.T) {
	tr := zipfTrace(3)
	p := lhd.New(1)
	got := ohr(t, p, tr, 50)
	if got <= 0.05 {
		t.Errorf("LHD OHR %.4f implausible", got)
	}
}

func TestAdaptSizeRejectsHugeObjects(t *testing.T) {
	p := adaptsize.New(10000, 1)
	c := cache.New(10000, p)
	rejected := 0
	for i := 0; i < 100; i++ {
		if !c.Handle(cache.Request{Time: int64(i), Key: cache.Key(i), Size: 5000}) && !c.Contains(cache.Key(i)) {
			rejected++
		}
	}
	if rejected < 50 {
		t.Errorf("exp(-size/c) admission should reject most huge objects, rejected only %d", rejected)
	}
	admitted := 0
	for i := 0; i < 100; i++ {
		c.Handle(cache.Request{Time: int64(200 + i), Key: cache.Key(1000 + i), Size: 1})
		if c.Contains(cache.Key(1000 + i)) {
			admitted++
		}
	}
	if admitted < 90 {
		t.Errorf("tiny objects should almost always be admitted, got %d/100", admitted)
	}
}
