package obs

import (
	"math"
	"runtime/metrics"
)

// runtimeMetrics are the Go runtime's figures a METRICS snapshot reads
// from runtime/metrics: the bytes ever allocated on the heap and the GC
// cycles completed (both cumulative), the heap the last cycle marked
// live, the live goroutines, and the longest GC stop-the-world pause
// so far. Their deltas over a run show allocation churn from outside
// the process, and the pause shows a stall no request timer catches.
var runtimeMetrics = []struct {
	name, key string
	value     func(metrics.Value) int64
}{
	{"runtime.heap_allocs_bytes", "/gc/heap/allocs:bytes", uint64Value},
	{"runtime.heap_live_bytes", "/gc/heap/live:bytes", uint64Value},
	{"runtime.gc_cycles", "/gc/cycles/total:gc-cycles", uint64Value},
	{"runtime.goroutines", "/sched/goroutines:goroutines", uint64Value},
	{"runtime.gc_pause_max_ns", "/sched/pauses/total/gc:seconds", histogramValue},
}

// RegisterRuntime registers runtimeMetrics in r. Each is read when a
// snapshot is taken, never on a request path.
func RegisterRuntime(r *Registry) {
	for _, m := range runtimeMetrics {
		key, value := m.key, m.value
		r.RegisterFunc(m.name, func() int64 {
			s := [1]metrics.Sample{{Name: key}}
			metrics.Read(s[:])
			return value(s[0].Value)
		})
	}
}

// uint64Value reads a counter or gauge sample, 0 if it is not one.
func uint64Value(v metrics.Value) int64 {
	if v.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(v.Uint64())
}

// histogramValue reads a seconds histogram sample by topBucketNs, 0 if
// it is not one.
func histogramValue(v metrics.Value) int64 {
	if v.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	return topBucketNs(v.Float64Histogram())
}

// topBucketNs returns the upper edge, in ns, of h's highest occupied
// bucket: its lower edge when the upper is +Inf, 0 when h is empty.
func topBucketNs(h *metrics.Float64Histogram) int64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		edge := h.Buckets[i+1]
		if math.IsInf(edge, 1) {
			edge = h.Buckets[i]
		}
		return int64(edge * 1e9)
	}
	return 0
}
