package sim

import (
	"math"
	"testing"
	"testing/quick"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/trace"
)

// TestOracleAgreesWithAnnotation cross-checks the two oracle
// mechanisms: Request.Next (backward-pass annotation) must equal
// Oracle.NextAfter(key, time) at every request.
func TestOracleAgreesWithAnnotation(t *testing.T) {
	f := func(seed int64) bool {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 40, Requests: 2000, Interarrival: trace.Pareto, Seed: seed,
		})
		tr.AnnotateNext()
		o := NewOracle(tr)
		for _, r := range tr.Reqs {
			if o.NextAfter(r.Key, r.Time) != r.Next {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestWarmupExcludesEarlyRequests verifies the Appendix C.1 warmup
// accounting: reported request counts cover only the post-warmup part,
// and a fraction that would leave no such part is an error rather than
// whole-trace statistics.
func TestWarmupExcludesEarlyRequests(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 10000, Interarrival: trace.Poisson, Seed: 3,
	})
	for _, tc := range []struct {
		frac     float64
		requests int64 // post-warmup; -1 = Run must fail
	}{
		{0, 10000},
		{0.5, 5000},
		{1, -1},
		{1.5, -1},
		{-0.1, -1},
		{math.NaN(), -1},
	} {
		p := policy.MustNew("lru", policy.Options{Capacity: 50})
		res, err := Run(tr, 1, cache.SingleFactory(p), Options{Capacity: 50, WarmupFrac: tc.frac})
		switch {
		case tc.requests < 0 && err == nil:
			t.Errorf("WarmupFrac %v: no error, %d requests reported", tc.frac, res.Stats.Requests)
		case tc.requests >= 0 && err != nil:
			t.Errorf("WarmupFrac %v: %v", tc.frac, err)
		case tc.requests >= 0 && res.Stats.Requests != tc.requests:
			t.Errorf("WarmupFrac %v: post-warmup requests %d, want %d", tc.frac, res.Stats.Requests, tc.requests)
		}
	}
}

// TestWarmupDoesNotChangeCacheContents: warmup affects accounting, not
// behaviour — the hits reported after a half-trace warmup are the
// full run's hits minus those of the first half replayed alone.
func TestWarmupDoesNotChangeCacheContents(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 10000, Interarrival: trace.Uniform, Seed: 4,
	})
	lru := func() cache.Policy { return policy.MustNew("lru", policy.Options{Capacity: 50}) }
	warm := runOne(t, tr, lru(), Options{Capacity: 50, WarmupFrac: 0.5})
	full := runOne(t, tr, lru(), Options{Capacity: 50})
	firstHalf := tr.Slice(0, tr.Len()/2)
	head := runOne(t, firstHalf, lru(), Options{Capacity: 50})
	if want := full.Stats.Hits - head.Stats.Hits; warm.Stats.Hits != want {
		t.Errorf("warmup hits %d != second-half hits %d of the run without warmup", warm.Stats.Hits, want)
	}
}

// TestHigherCapacityNeverHurtsBelady: for the offline optimum, OHR is
// monotone in cache size (a property test of both the simulator and
// the Belady implementation).
func TestHigherCapacityNeverHurtsBelady(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 20000, Interarrival: trace.Pareto, Seed: 5,
	})
	prev := -1.0
	for _, c := range []int64{25, 50, 100, 200} {
		res := runOne(t, tr, policy.MustNew("belady", policy.Options{Capacity: c}), Options{Capacity: c})
		if res.OHR < prev-1e-9 {
			t.Errorf("Belady OHR decreased from %.4f to %.4f at capacity %d", prev, res.OHR, c)
		}
		prev = res.OHR
	}
}

// TestNetAccountingConsistent: backend bytes equal request bytes minus
// hit bytes, and throughput numbers are positive.
func TestNetAccountingConsistent(t *testing.T) {
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 10000, Interarrival: trace.Poisson,
		VariableSizes: true, Seed: 6,
	})
	res := runOne(t, tr, policy.MustNew("lru", policy.Options{Capacity: tr.UniqueBytes() / 10}), Options{
		Capacity: tr.UniqueBytes() / 10, Net: CDNModel(),
	})
	if res.Net.BackendBytes != res.Stats.MissBytes() {
		t.Errorf("backend bytes %d != miss bytes %d", res.Net.BackendBytes, res.Stats.MissBytes())
	}
	if res.Net.ThroughputGbps <= 0 || res.Net.AvgLatency <= 0 {
		t.Errorf("non-positive model outputs: %+v", res.Net)
	}
	if res.Net.P99Latency < res.Net.P90Latency || res.Net.P90Latency < res.Net.AvgLatency/10 {
		t.Errorf("implausible latency percentiles: %+v", res.Net)
	}
}
