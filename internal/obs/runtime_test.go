package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"
)

// TestRuntimeSchedGauges: runtime.goroutines counts live goroutines,
// and after a forced collection runtime.gc_pause_max_ns reads a pause.
func TestRuntimeSchedGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	read := func(name string) int64 {
		t.Helper()
		for _, kv := range r.Snapshot() {
			if kv.Name == name {
				return kv.Value
			}
		}
		t.Fatalf("no %s in the snapshot", name)
		return 0
	}
	before := read("runtime.goroutines")
	const parked = 8
	release := make(chan struct{})
	for range parked {
		go func() { <-release }()
	}
	if got := read("runtime.goroutines"); got < before+parked {
		t.Errorf("runtime.goroutines = %d with %d more parked, want >= %d", got, parked, before+parked)
	}
	close(release)
	runtime.GC()
	if got := read("runtime.gc_pause_max_ns"); got <= 0 {
		t.Errorf("runtime.gc_pause_max_ns = %d after a forced collection", got)
	}
}

// TestTopBucketNs: the highest occupied bucket's upper edge, its lower
// edge when the upper is +Inf, and 0 for an empty histogram.
func TestTopBucketNs(t *testing.T) {
	edges := []float64{math.Inf(-1), 1e-6, 1e-3, 0.5, math.Inf(1)}
	for _, c := range []struct {
		counts []uint64
		want   int64
	}{
		{[]uint64{0, 0, 0, 0}, 0},
		{[]uint64{0, 3, 0, 0}, 1e6},
		{[]uint64{0, 3, 1, 0}, 5e8},
		{[]uint64{0, 3, 1, 2}, 5e8},
	} {
		if got := topBucketNs(&metrics.Float64Histogram{Counts: c.counts, Buckets: edges}); got != c.want {
			t.Errorf("counts %v: %d ns, want %d", c.counts, got, c.want)
		}
	}
}
