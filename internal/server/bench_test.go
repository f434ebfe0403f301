package server

import (
	"fmt"
	"testing"

	"raven/internal/cache"
	"raven/internal/policy"
	"raven/internal/trace"
)

// BenchmarkServing measures over-the-wire request throughput at two
// pipeline depths (depth 1 is strict request-response) against an
// in-process LRU server: the connection loop and the binary codec
// alone. CI runs it with -benchtime=1x as a smoke test of the pipelined
// path; the served system (ravencached, Raven on) is timed by
// benchmark/ only.
func BenchmarkServing(b *testing.B) {
	for _, depth := range []int{1, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := Config{
				Capacity:     1 << 20,
				NewPolicy:    cache.SingleFactory(policy.MustNew("lru", policy.Options{Capacity: 1 << 20})),
				DrainTimeout: 0,
			}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			cl, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()

			ops := make([]Op, b.N)
			for i := range ops {
				ops[i] = Op{Key: trace.Key(i % 1024), Size: 64, Time: -1, Set: i%10 == 9}
			}
			b.ReportAllocs()
			b.ResetTimer()
			st, err := cl.Pipeline(ops, depth)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st.Requests != b.N {
				b.Fatalf("served %d of %d requests", st.Requests, b.N)
			}
			b.ReportMetric(st.ReqPerSec(), "req/s")
		})
	}
}
