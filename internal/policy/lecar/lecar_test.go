package lecar

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/stats"
	"raven/internal/trace"
)

func req(t int64, k cache.Key) cache.Request {
	return cache.Request{Time: t, Key: k, Size: 1}
}

func TestGhostListBounded(t *testing.T) {
	g := newGhostList()
	for k := cache.Key(0); k < 50; k++ {
		g.add(k, int64(k), 10)
	}
	if g.ll.Len() != 10 || len(g.items) != 10 {
		t.Errorf("ghost list should be capped at 10, got %d/%d", g.ll.Len(), len(g.items))
	}
	// Only the most recent 10 remain.
	if _, ok := g.take(0); ok {
		t.Error("oldest ghost should have been trimmed")
	}
	if _, ok := g.take(49); !ok {
		t.Error("newest ghost should be present")
	}
}

func TestGhostTakeRemoves(t *testing.T) {
	g := newGhostList()
	g.add(1, 7, 10)
	if step, ok := g.take(1); !ok || step != 7 {
		t.Fatalf("take(1) = %v,%v", step, ok)
	}
	if _, ok := g.take(1); ok {
		t.Error("second take should miss")
	}
}

func TestRegretShiftsWeights(t *testing.T) {
	p := New(1)
	c := cache.New(4, p)
	// Fill, then force LRU-expert evictions and re-request the ghosts:
	// each ghost hit should boost the LFU expert.
	for k := cache.Key(1); k <= 4; k++ {
		c.Handle(req(int64(k), k))
	}
	wl0, _ := p.Weights()
	for i := 0; i < 200; i++ {
		c.Handle(req(int64(100+2*i), cache.Key(100+i%8)))
		c.Handle(req(int64(101+2*i), cache.Key(100+(i+1)%8))) // frequent re-misses
	}
	wl1, wf1 := p.Weights()
	if wl1 == wl0 {
		t.Error("weights never moved despite ghost hits")
	}
	if wl1 < 0 || wf1 < 0 || wl1+wf1 < 0.99 || wl1+wf1 > 1.01 {
		t.Errorf("weights not a distribution: %v + %v", wl1, wf1)
	}
}

func TestEvictionsComeFromCache(t *testing.T) {
	p := New(2)
	c := cache.New(3, p)
	for i := 0; i < 500; i++ {
		c.Handle(req(int64(i), cache.Key(i%9)))
	}
	if c.Used() > 3 {
		t.Errorf("capacity violated: %d", c.Used())
	}
}

// TestGhostsSizedByResidents replays a cache of 64 MiB holding objects
// of 16 to 48 KiB — about 2 000 of them — and requires each ghost list
// to hold no more entries than the cache holds objects. A bound taken
// from the byte capacity (4 096 entries for any cache of 1 MiB or more)
// would let both lists grow to twice the residents.
func TestGhostsSizedByResidents(t *testing.T) {
	p := New(3)
	c := cache.New(64<<20, p)
	g := stats.NewRNG(5)
	for i := 0; i < 100_000; i++ {
		k := cache.Key(g.Intn(40_000))
		if g.Intn(2) == 0 {
			k = cache.Key(g.Intn(1_000)) // a hot set, so both experts win some regret
		}
		size := int64(16<<10) + int64(uint64(k)*7919%(32<<10))
		c.Handle(cache.Request{Time: int64(i), Key: k, Size: size})
	}
	residents := p.set.Len()
	if residents < minHistory || residents >= 4096 {
		t.Fatalf("%d residents: the replay does not exercise the bound", residents)
	}
	for name, h := range map[string]*ghostList{"LRU": p.hLRU, "LFU": p.hLFU} {
		if h.ll.Len() > residents || len(h.items) != h.ll.Len() {
			t.Errorf("%s ghost list holds %d (%d indexed), the cache %d objects", name, h.ll.Len(), len(h.items), residents)
		}
		if h.ll.Len() < residents/2 {
			t.Errorf("%s ghost list holds %d of %d: the replay barely evicted through it", name, h.ll.Len(), residents)
		}
	}
}

// Weights returns the current (LRU, LFU) expert weights (for tests).
func (p *LeCaR) Weights() (float64, float64) { return p.wLRU, p.wLFU }

// zipfTrace is a Zipf workload over 300 objects with Poisson renewals.
func zipfTrace(seed int64) *trace.Trace {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 40000, Interarrival: trace.Poisson, Seed: seed,
	})
	tr.AnnotateNext()
	return tr
}

// ohr replays tr through a cache of the given capacity driven by p.
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

func TestLeCaRWeightsAdapt(t *testing.T) {
	p := New(1)
	ohr(t, p, zipfTrace(4), 50)
	wl, wf := p.Weights()
	if wl < 0 || wf < 0 || wl+wf < 0.99 || wl+wf > 1.01 {
		t.Errorf("weights must stay a distribution: %v %v", wl, wf)
	}
	// On a Zipf/Poisson workload the LFU expert should gain weight.
	if wf < 0.3 {
		t.Errorf("LFU expert weight %.3f suspiciously low for a frequency-dominated workload", wf)
	}
}
