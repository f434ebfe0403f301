package obs

import "runtime/metrics"

// runtimeMetrics are the Go runtime's memory figures a METRICS
// snapshot reads from runtime/metrics: the bytes ever allocated on the
// heap and the GC cycles completed (both cumulative), and the heap the
// last cycle marked live. Their deltas over a run show allocation churn
// from outside the process.
var runtimeMetrics = []struct{ name, key string }{
	{"runtime.heap_allocs_bytes", "/gc/heap/allocs:bytes"},
	{"runtime.heap_live_bytes", "/gc/heap/live:bytes"},
	{"runtime.gc_cycles", "/gc/cycles/total:gc-cycles"},
}

// RegisterRuntime registers runtimeMetrics in r. Each is read when a
// snapshot is taken, never on a request path.
func RegisterRuntime(r *Registry) {
	for _, m := range runtimeMetrics {
		key := m.key
		r.RegisterFunc(m.name, func() int64 {
			s := [1]metrics.Sample{{Name: key}}
			metrics.Read(s[:])
			if s[0].Value.Kind() != metrics.KindUint64 {
				return 0
			}
			return int64(s[0].Value.Uint64())
		})
	}
}
