package cluster

import (
	"fmt"
	"testing"
	"time"

	"raven/internal/server"
	"raven/internal/trace"
)

// BenchmarkRoutedPipeline measures the router hop over the wire: one
// binary client pipelining through a front server and the router to two
// in-process nodes, strict request-response (depth 1) and at depth 32.
// rt/op is backend round trips per client request: one at depth 1,
// about two per burst — one per node — when the client pipelines. CI
// runs it with -benchtime=1x as a smoke test; the figures of record are
// the benchmark's routed_kv workload.
func BenchmarkRoutedPipeline(b *testing.B) {
	for _, depth := range []int{1, 32} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			addrs, _ := startBackends(b, 2, 1<<20)
			r := newTestRouter(b, addrs)
			front, err := server.New(server.Config{Backend: r, Registry: r.Metrics(), DrainTimeout: time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer front.Close()
			cl, err := server.Dial(front.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()

			ops := make([]server.Op, b.N)
			for i := range ops {
				ops[i] = server.Op{Key: trace.Key(i % 1024), Size: 64, Time: -1, Set: i%10 == 9}
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
			var roundTrips int64
			for i := range addrs {
				roundTrips += r.Metrics().Histogram(fmt.Sprintf("router.node%d.latency_ns", i)).Snapshot().Count
			}
			b.ReportMetric(st.ReqPerSec(), "req/s")
			b.ReportMetric(float64(roundTrips)/float64(b.N), "rt/op")
		})
	}
}
