package belady

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy/lru"
	"raven/internal/stats"
	"raven/internal/trace"
)

func runPolicy(t *trace.Trace, p cache.Policy, capacity int64) cache.Stats {
	c := cache.New(capacity, p)
	for _, r := range t.Reqs {
		c.Handle(r)
	}
	return c.StatsSnapshot()
}

func synth(seed int64, variable bool) *trace.Trace {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 300, Requests: 30000, Interarrival: trace.Uniform,
		VariableSizes: variable, Seed: seed,
	})
	tr.AnnotateNext()
	return tr
}

func TestBeladyEvictsFarthest(t *testing.T) {
	// Keys: 1 next at t=10, 2 next at t=5, 3 never again.
	tr := &trace.Trace{Reqs: []trace.Request{
		{Time: 1, Key: 1, Size: 1},
		{Time: 2, Key: 2, Size: 1},
		{Time: 3, Key: 3, Size: 1}, // cache full
		{Time: 4, Key: 4, Size: 1}, // must evict 3 (never again)
		{Time: 5, Key: 2, Size: 1},
		{Time: 10, Key: 1, Size: 1},
	}}
	tr.AnnotateNext()
	p := New()
	c := cache.New(3, p)
	for i, r := range tr.Reqs[:4] {
		c.Handle(r)
		_ = i
	}
	if c.Contains(3) {
		t.Error("Belady must evict the never-requested-again object")
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("objects with future requests should survive")
	}
}

func TestBeladyBeatsEveryOnlinePolicy(t *testing.T) {
	tr := synth(1, false)
	opt := runPolicy(tr, New(), 100)
	for i := 0; i < 5; i++ {
		tr2 := synth(1, false)
		st := runPolicy(tr2, lru.New(), 100)
		if st.OHR() > opt.OHR() {
			t.Fatalf("LRU OHR %.4f beat Belady %.4f", st.OHR(), opt.OHR())
		}
	}
}

func TestBeladySizePrefersCostlyObjects(t *testing.T) {
	// Belady-Size evicts max size × next-distance. A huge object
	// needed soon should still lose to a small object needed late
	// when size dominates.
	tr := synth(2, true)
	optSize := runPolicy(tr, NewSize(1, 64), capOf(tr))
	tr2 := synth(2, true)
	plain := runPolicy(tr2, lru.New(), capOf(tr2))
	if optSize.OHR() <= plain.OHR() {
		t.Errorf("Belady-Size OHR %.4f should beat LRU %.4f", optSize.OHR(), plain.OHR())
	}
}

func capOf(tr *trace.Trace) int64 { return tr.UniqueBytes() / 10 }

func TestUpperBoundHitsIsUpperBound(t *testing.T) {
	tr := synth(3, false)
	ub := UpperBoundHits(tr, 100)
	belady := runPolicy(synth(3, false), New(), 100)
	if int64(ub) < belady.Hits {
		t.Errorf("flow bound %d below Belady hits %d — cannot be", ub, belady.Hits)
	}
	if float64(ub) > float64(tr.Len()) {
		t.Errorf("bound %d exceeds total requests", ub)
	}
}

func TestUpperBoundHitsVariableSizes(t *testing.T) {
	tr := synth(4, true)
	capacity := capOf(tr)
	ub := UpperBoundHits(tr, capacity)
	st := runPolicy(synth(4, true), NewSize(1, 64), capacity)
	if int64(ub) < st.Hits {
		t.Errorf("flow bound %d below Belady-Size hits %d", ub, st.Hits)
	}
}

func TestBeladyDeterministic(t *testing.T) {
	a := runPolicy(synth(5, false), New(), 100)
	b := runPolicy(synth(5, false), New(), 100)
	if a != b {
		t.Error("Belady must be deterministic")
	}
}

func TestBeladySizeSampledStillStrong(t *testing.T) {
	// With sample >= cache objects the choice is exact; tiny samples
	// should degrade but not catastrophically.
	tr := synth(6, false)
	exact := runPolicy(tr, NewSize(1, 1000), 100)
	tr2 := synth(6, false)
	small := runPolicy(tr2, NewSize(1, 8), 100)
	if small.OHR() > exact.OHR()+0.02 {
		t.Errorf("sampled (%.4f) should not beat exact (%.4f)", small.OHR(), exact.OHR())
	}
	_ = stats.Mean
}
