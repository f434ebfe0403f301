package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d, want 42", c.Load())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Load() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Load())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 100 observations: 1..100 microseconds in nanoseconds.
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Max != 100000 {
		t.Fatalf("max = %d, want 100000", s.Max)
	}
	// Power-of-two buckets: a reported quantile is >= the true value
	// and at most 2x it.
	checks := []struct {
		name       string
		got, exact int64
	}{
		{"p50", s.P50, 50000},
		{"p90", s.P90, 90000},
		{"p99", s.P99, 99000},
	}
	for _, c := range checks {
		if c.got < c.exact || c.got > 2*c.exact {
			t.Errorf("%s = %d, want in [%d, %d]", c.name, c.got, c.exact, 2*c.exact)
		}
	}
	if s.Mean < 50000 || s.Mean > 51000 {
		t.Errorf("mean = %d, want ~50500", s.Mean)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5) // clamped to 0
	h.Observe(1)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Max != 1 {
		t.Fatalf("max = %d, want 1", s.Max)
	}
	if s.P50 != 0 {
		t.Fatalf("p50 = %d, want 0", s.P50)
	}
}

// TestHistogramObserveN: ObserveN(v, n) leaves a histogram exactly as n
// Observe(v) calls do — every bucket, the count, the sum and the max —
// negative values clamped alike, and n <= 0 records nothing.
func TestHistogramObserveN(t *testing.T) {
	var batched, single Histogram
	for _, o := range []struct{ v, n int64 }{
		{0, 3}, {1, 1}, {-7, 2}, {1000, 32}, {999, 0}, {1 << 40, 5}, {3, -4}, {1500, 7}, {1 << 62, 1},
	} {
		batched.ObserveN(o.v, o.n)
		for i := int64(0); i < o.n; i++ {
			single.Observe(o.v)
		}
	}
	for i := range batched.counts {
		if b, s := batched.counts[i].Load(), single.counts[i].Load(); b != s {
			t.Errorf("bucket %d: ObserveN %d, Observe %d", i, b, s)
		}
	}
	for _, f := range []struct {
		name string
		b, s int64
	}{
		{"count", batched.count.Load(), single.count.Load()},
		{"sum", batched.sum.Load(), single.sum.Load()},
		{"max", batched.max.Load(), single.max.Load()},
	} {
		if f.b != f.s {
			t.Errorf("%s: ObserveN %d, Observe %d", f.name, f.b, f.s)
		}
	}
	if got := batched.Snapshot(); got != single.Snapshot() || got.Count != 51 {
		t.Errorf("snapshot %+v, want %+v with 51 samples", got, single.Snapshot())
	}
}

// TestHotPathAllocFree pins the contract the server relies on: metric
// updates on the request path never allocate.
func TestHotPathAllocFree(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(123)
		h.Observe(4096)
		h.ObserveN(4096, 32)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %.1f per op, want 0", allocs)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Max != workers*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, workers*per-1)
	}
}

func TestRegistrySnapshotOrderAndReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	g := r.Gauge("g")
	h := r.Histogram("lat")
	a.Add(3)
	g.Set(-2)
	h.Observe(5)

	if r.Counter("a") != a {
		t.Error("Counter(name) did not return the registered counter")
	}
	if r.Gauge("g") != g {
		t.Error("Gauge(name) did not return the registered gauge")
	}
	if r.Histogram("lat") != h {
		t.Error("Histogram(name) did not return the registered histogram")
	}
	// Kind collision returns a detached metric, never corrupts entries.
	if r.Counter("g") == nil {
		t.Error("kind collision should return a fresh counter")
	}

	kvs := r.Snapshot()
	names := make([]string, len(kvs))
	for i, kv := range kvs {
		names[i] = kv.Name
	}
	want := []string{"a", "g", "lat.count", "lat.mean", "lat.p50", "lat.p90", "lat.p99", "lat.max"}
	if len(names) != len(want) {
		t.Fatalf("snapshot names %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", names, want)
		}
	}
	if kvs[0].Value != 3 || kvs[1].Value != -2 {
		t.Errorf("snapshot values %v", kvs[:2])
	}
}

func TestRegistryRenderers(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	if line := r.Line(); line != "x=1 y=2" {
		t.Errorf("Line = %q", line)
	}
}

func TestRavenObsRegister(t *testing.T) {
	r := NewRegistry()
	var ro RavenObs
	ro.Register(r, "raven")
	ro.TrainEpochs.Add(12)
	ro.TrainSequences.Add(4000)
	ro.TrainSkipped.Add(3)
	kvs := r.Snapshot()
	got := make(map[string]int64, len(kvs))
	for _, kv := range kvs {
		got[kv.Name] = kv.Value
	}
	if got["raven.train_epochs"] != 12 || got["raven.train_sequences"] != 4000 || got["raven.train_skipped"] != 3 {
		t.Errorf("snapshot %v", got)
	}
	// 12 lifecycle and fast-path metrics + train_epochs, train_sequences,
	// train_skipped, then the history-store triple and the table's bytes,
	// registered last.
	if len(kvs) != 19 {
		t.Fatalf("want 19 raven metrics, got %d", len(kvs))
	}
	for i, name := range []string{"raven.history_records", "raven.history_resident", "raven.history_dropped", "raven.table_bytes"} {
		if kvs[15+i].Name != name {
			t.Errorf("metric %d = %q, want %q", 15+i, kvs[15+i].Name, name)
		}
	}
}

// TestRavenObsHealthConcurrent: shards move their health on their own
// goroutines through one RavenObs. Every shard that falls back and
// recovers leaves the shared state healthy; one that stays degraded
// shows.
func TestRavenObsHealthConcurrent(t *testing.T) {
	var ro RavenObs
	var wg sync.WaitGroup
	const shards, cycles = 8, 1000
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				ro.HealthMoved(0, 1)
				ro.HealthMoved(1, 2)
				_ = ro.Health()
				ro.HealthMoved(2, 0)
			}
		}()
	}
	wg.Wait()
	if h := ro.Health(); h != 0 {
		t.Fatalf("health %d after every shard recovered, want 0", h)
	}
	if n := ro.HealthTransitions.Load(); n != shards*cycles*3 {
		t.Errorf("health_transitions = %d, want %d", n, shards*cycles*3)
	}
	ro.HealthMoved(0, 1)
	if h := ro.Health(); h != 1 {
		t.Errorf("health %d with one shard degraded, want 1", h)
	}
}

// cacheNames is every metric a CacheObs registers, in its order: 3
// gauges, 9 counters and the 7 admit_rejects.<reason> counters. METRICS
// output and dashboards depend on both.
var cacheNames = []string{
	"used_bytes", "objects", "admit_bytes",
	"requests", "hits", "req_bytes", "hit_bytes", "evictions", "one_hit_wonders",
	"admissions", "rejections", "sets",
	"admit_rejects.too_large", "admit_rejects.no_victim", "admit_rejects.policy",
	"admit_rejects.size_threshold", "admit_rejects.doorkeeper", "admit_rejects.frequency",
	"admit_rejects.predicted_reuse",
}

// setCacheObs gives metric i of co the value base+i.
func setCacheObs(co *CacheObs, base int64) {
	for i, m := range co.metrics() {
		if m.g != nil {
			m.g.Set(base + int64(i))
		} else {
			m.c.Add(base + int64(i))
		}
	}
}

func TestCacheObsRegister(t *testing.T) {
	r := NewRegistry()
	var co CacheObs
	co.Register(r, "cache")
	setCacheObs(&co, 1)
	kvs := r.Snapshot()
	if len(kvs) != len(cacheNames) {
		t.Fatalf("want %d cache metrics, got %d", len(cacheNames), len(kvs))
	}
	for i, name := range cacheNames {
		if kv := kvs[i]; kv.Name != "cache."+name || kv.Value != int64(1+i) {
			t.Errorf("metric %d = %s %d, want cache.%s %d", i, kv.Name, kv.Value, name, 1+i)
		}
	}

	// The sharded bundle registers every total first, in CacheObs order,
	// each the sum over shards; then each shard's own bundle.
	r = NewRegistry()
	var so ShardedCacheObs
	so.Init(2)
	so.Register(r, "cache")
	setCacheObs(so.Shard(0), 100)
	setCacheObs(so.Shard(1), 200)
	kvs = r.Snapshot()
	if len(kvs) != 3*len(cacheNames) {
		t.Fatalf("want %d sharded cache metrics, got %d", 3*len(cacheNames), len(kvs))
	}
	for i, name := range cacheNames {
		for block, want := range []struct {
			prefix string
			value  int64
		}{{"cache", 300 + 2*int64(i)}, {"cache.shard0", 100 + int64(i)}, {"cache.shard1", 200 + int64(i)}} {
			kv := kvs[block*len(cacheNames)+i]
			if kv.Name != want.prefix+"."+name || kv.Value != want.value {
				t.Errorf("%s = %d, want %s.%s = %d", kv.Name, kv.Value, want.prefix, name, want.value)
			}
		}
	}
}
