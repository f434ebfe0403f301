package sim

import (
	"testing"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/trace"
)

func synth(seed int64) *trace.Trace {
	return trace.Synthetic(trace.SynthConfig{
		Objects: 500, Requests: 40000, Interarrival: trace.Poisson, Seed: seed,
	})
}

// runOne replays tr through a one-shard engine driven by p.
func runOne(t *testing.T, tr *trace.Trace, p cache.Policy, opts Options) *Result {
	t.Helper()
	res, err := Run(tr, 1, cache.SingleFactory(p), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOracleNextAfter(t *testing.T) {
	tr := &trace.Trace{Reqs: []trace.Request{
		{Time: 10, Key: 1, Size: 1},
		{Time: 20, Key: 2, Size: 1},
		{Time: 30, Key: 1, Size: 1},
	}}
	o := NewOracle(tr)
	if got := o.NextAfter(1, 10); got != 30 {
		t.Errorf("NextAfter(1,10) = %d, want 30", got)
	}
	if got := o.NextAfter(1, 30); got != trace.NoNext {
		t.Errorf("NextAfter(1,30) = %d, want NoNext", got)
	}
	if got := o.NextAfter(99, 0); got != trace.NoNext {
		t.Errorf("NextAfter(unknown) = %d, want NoNext", got)
	}
}

func TestRunMatchesCacheStats(t *testing.T) {
	tr := synth(1)
	res := runOne(t, tr, policy.MustNew("lru", policy.Options{Capacity: 100}), Options{Capacity: 100})
	if res.Stats.Requests != int64(tr.Len()) {
		t.Errorf("requests %d != trace %d", res.Stats.Requests, tr.Len())
	}
	if res.OHR <= 0 || res.OHR >= 1 {
		t.Errorf("implausible OHR %v", res.OHR)
	}
	if res.Stats.Hits+res.Stats.Admissions+res.Stats.Rejections != res.Stats.Requests {
		t.Errorf("hits+admissions+rejections should equal requests: %+v", res.Stats)
	}
}

func TestBeladyIsUpperBound(t *testing.T) {
	tr := synth(2)
	opts := Options{Capacity: 100}
	belady := runOne(t, tr, policy.MustNew("belady", policy.Options{Capacity: 100}), opts)
	for _, name := range []string{"lru", "lfu", "random", "fifo", "hyperbolic", "lhd"} {
		r := runOne(t, tr, policy.MustNew(name, policy.Options{Capacity: 100, Seed: 3}), opts)
		if r.OHR > belady.OHR+1e-9 {
			t.Errorf("%s OHR %.4f exceeds Belady %.4f — Belady must be optimal", name, r.OHR, belady.OHR)
		}
	}
}

func TestBeladyRankErrorIsZero(t *testing.T) {
	tr := synth(3)
	res := runOne(t, tr, policy.MustNew("belady", policy.Options{Capacity: 100}), Options{
		Capacity:       100,
		RankOrderEvery: 10,
	})
	if len(res.RankErrors) == 0 {
		t.Fatal("no rank errors observed")
	}
	for _, e := range res.RankErrors {
		if e != 0 {
			t.Fatalf("Belady produced nonzero rank error %v", e)
		}
	}
}

func TestRandomHasLargerRankErrorThanBelady(t *testing.T) {
	tr := synth(4)
	opts := Options{Capacity: 100, RankOrderEvery: 5}
	rnd := runOne(t, tr, policy.MustNew("random", policy.Options{Capacity: 100, Seed: 1}), opts)
	if len(rnd.RankErrors) == 0 {
		t.Fatal("no rank errors for random")
	}
	mean := 0.0
	for _, e := range rnd.RankErrors {
		mean += e
	}
	mean /= float64(len(rnd.RankErrors))
	if mean < 5 {
		t.Errorf("random policy mean rank error %.2f suspiciously small", mean)
	}
}

func TestNetModelLatencyOrdering(t *testing.T) {
	cdn := CDNModel()
	if cdn.ServiceTime(true, 1000) >= cdn.ServiceTime(false, 1000) {
		t.Error("CDN hit must be faster than miss")
	}
	mem := InMemoryModel()
	if mem.ServiceTime(true, 100) >= mem.ServiceTime(false, 100) {
		t.Error("in-memory hit must be faster than miss")
	}
}

func TestNetResultHigherHitRatioLowerLatency(t *testing.T) {
	tr := synth(5)
	opts := Options{Capacity: 100, Net: InMemoryModel()}
	lruRes := runOne(t, tr, policy.MustNew("lru", policy.Options{Capacity: 100}), opts)
	belRes := runOne(t, tr, policy.MustNew("belady", policy.Options{Capacity: 100}), opts)
	if belRes.Net.AvgLatency >= lruRes.Net.AvgLatency {
		t.Errorf("Belady latency %v should beat LRU %v", belRes.Net.AvgLatency, lruRes.Net.AvgLatency)
	}
	if belRes.Net.ThroughputKRPS <= lruRes.Net.ThroughputKRPS {
		t.Errorf("Belady throughput %.2f should beat LRU %.2f",
			belRes.Net.ThroughputKRPS, lruRes.Net.ThroughputKRPS)
	}
	if belRes.Net.BackendBytes >= lruRes.Net.BackendBytes {
		t.Errorf("Belady backend bytes %d should be below LRU %d",
			belRes.Net.BackendBytes, lruRes.Net.BackendBytes)
	}
}

func TestEvictionTimeMeasured(t *testing.T) {
	tr := synth(7)
	res := runOne(t, tr, policy.MustNew("lru", policy.Options{Capacity: 50}), Options{Capacity: 50})
	if res.Stats.Evictions == 0 {
		t.Fatal("no evictions")
	}
	if res.EvictionNanos.Count == 0 {
		t.Fatal("eviction times not measured")
	}
}

func TestRankErrorVictimNeverRequestedAgain(t *testing.T) {
	// A victim that is never requested again is an optimal choice:
	// rank error must be 0 regardless of the other cached objects.
	tr := &trace.Trace{Reqs: []trace.Request{
		{Time: 1, Key: 1, Size: 1}, {Time: 2, Key: 2, Size: 1},
		{Time: 3, Key: 1, Size: 1},
	}}
	o := NewOracle(tr)
	keys := []cache.Key{1, 2}
	if e := rankError(o, keys, 2, 2); e != 0 {
		t.Errorf("rank error %v, want 0 for never-again victim", e)
	}
}

// TestCurveIsCumulativeStats: each point of Result.Curve is the
// engine's cumulative Stats after that many measured requests, one
// point every max(n/curveSamples, 1) of the n measured requests, and
// the warm-up requests count in none of them.
func TestCurveIsCumulativeStats(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{Objects: 300, Requests: 5017, Interarrival: trace.Poisson, VariableSizes: true, Seed: 4})
	f, err := policy.Lookup("lru")
	if err != nil {
		t.Fatal(err)
	}
	const capacity, shards = 20000, 2
	for _, warm := range []float64{0, 0.3} {
		newPolicy := f.PerShard(policy.Options{Capacity: capacity}, shards)
		res, err := Run(tr, shards, newPolicy, Options{Capacity: capacity, WarmupFrac: warm})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cache.NewSharded(capacity, shards, newPolicy)
		if err != nil {
			t.Fatal(err)
		}
		warmIdx := int(warm * float64(tr.Len()))
		every := max((tr.Len()-warmIdx)/curveSamples, 1)
		var want []cache.Stats
		for i, req := range tr.Reqs {
			if i == warmIdx {
				for sh := range shards {
					direct.SetShardObs(sh, nil)
				}
			}
			direct.Handle(req)
			if i >= warmIdx && (i+1-warmIdx)%every == 0 {
				want = append(want, direct.StatsSnapshot())
			}
		}
		if len(res.Curve) != (tr.Len()-warmIdx)/every || len(res.Curve) != len(want) {
			t.Fatalf("warm=%v: %d curve points, want %d", warm, len(res.Curve), len(want))
		}
		for k, st := range res.Curve {
			if st != want[k] || st.Requests != int64((k+1)*every) {
				t.Errorf("warm=%v: point %d is %+v, want %+v after %d measured requests", warm, k, st, want[k], (k+1)*every)
			}
		}
	}
}
