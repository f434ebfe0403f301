// Live server: starts the TCP cache server (the §5.4 ATS-style
// prototype) with a Raven policy, replays a Wikimedia-like trace over
// a real socket, and prints the hit-ratio trajectory and latencies —
// each the §5.1.4 CDN model's service time plus the measured round
// trip — the Fig. 12 experiment in miniature.
package main

import (
	"fmt"
	"os"
	"time"

	"raven"
	"raven/internal/cache"
	"raven/internal/server"
	"raven/internal/stats"
)

func main() {
	tr := raven.ProductionTrace(raven.Wikimedia19, 0.03, 17)
	capacity := int64(float64(tr.UniqueBytes()) * 0.05)

	rv := raven.NewRaven(raven.RavenConfig{
		TrainWindow:       tr.Duration() / 6,
		SampleBudgetBytes: 5 * capacity,
		Seed:              19,
	})
	srv, err := server.New(server.Config{
		Capacity:  capacity,
		NewPolicy: cache.SingleFactory(rv),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "liveserver:", err)
		os.Exit(1)
	}
	defer srv.Close()
	fmt.Printf("cache server on %s, capacity %.1f MB, %d requests to replay\n\n",
		srv.Addr(), float64(capacity)/(1<<20), tr.Len())

	cl, err := server.Dial(srv.Addr())
	if err != nil {
		fmt.Fprintln(os.Stderr, "liveserver:", err)
		os.Exit(1)
	}
	defer cl.Close()

	res, err := cl.Replay(tr, 10, raven.CDNNetModel())
	if err != nil {
		fmt.Fprintln(os.Stderr, "liveserver:", err)
		os.Exit(1)
	}
	fmt.Println("hit-ratio trajectory (cumulative):")
	for _, pt := range res.Curve {
		fmt.Printf("  after %6d requests: OHR %.4f  BHR %.4f\n", pt.Requests, pt.OHR, pt.BHR)
	}
	fmt.Printf("\nfinal: OHR %.4f BHR %.4f over the wire in %v\n", res.Stats.OHR(), res.Stats.BHR(), res.Wall.Round(time.Millisecond))
	ms := make([]float64, len(res.Latency))
	for i, d := range res.Latency {
		ms[i] = float64(d) / 1e6
	}
	lat := stats.Summarize(ms)
	fmt.Printf("latency: mean %.2f ms  p90 %.2f ms  p99 %.2f ms (§5.1.4 CDN model + measured round trip)\n",
		lat.Mean, lat.P90, lat.P99)
	fmt.Printf("longest round trip: %v\n", res.MaxWire.Round(time.Microsecond))
	fmt.Printf("trained %d model(s) while serving\n", len(rv.TrainStats))
}
