package server

import (
	"fmt"
	"testing"

	"raven/internal/policy"
	"raven/internal/trace"
)

// BenchmarkServing measures over-the-wire request throughput against an
// in-process LRU server: the connection loop, the binary codec and the
// engine's burst path. Depth 1 is strict request-response; at depth 32
// a burst takes a shard's lock once per run of same-shard ops, which is
// once per burst on 1 shard and once per 4/3 ops on 4. CI runs it with
// -benchtime=1x as a smoke test of the pipelined path; the served
// system (ravencached, Raven on) is timed by benchmark/ only.
func BenchmarkServing(b *testing.B) {
	lru, err := policy.Lookup("lru")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct{ shards, depth int }{{1, 1}, {1, 32}, {4, 32}} {
		b.Run(fmt.Sprintf("shards=%d/depth=%d", tc.shards, tc.depth), func(b *testing.B) {
			cfg := Config{
				Capacity:     1 << 20,
				Shards:       tc.shards,
				NewPolicy:    lru.PerShard(policy.Options{Capacity: 1 << 20}, tc.shards),
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
			st, err := cl.Pipeline(ops, tc.depth)
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
