// Live server: starts the TCP cache server with a Raven policy, sends a
// Wikimedia-like trace's GETs over a real socket one round trip at a
// time, and prints the client's round-trip percentiles, the server's
// STATS counters and its final METRICS line.
package main

import (
	"fmt"
	"os"
	"time"

	"raven"
	"raven/internal/cache"
	"raven/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liveserver:", err)
		os.Exit(1)
	}
}

func run() error {
	tr := raven.ProductionTrace(raven.Wikimedia19, 0.03, 17)
	capacity := int64(float64(tr.UniqueBytes()) * 0.05)

	rv := raven.NewRaven(raven.RavenConfig{
		TrainWindow: tr.Duration() / 6,
		Capacity:    capacity,
		Seed:        19,
	})
	srv, err := server.New(server.Config{
		Capacity:  capacity,
		NewPolicy: cache.SingleFactory(rv),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("cache server on %s, capacity %.1f MB, %d requests to send\n\n",
		srv.Addr(), float64(capacity)/(1<<20), tr.Len())

	cl, err := server.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	ops := make([]server.Op, tr.Len())
	for i, req := range tr.Reqs {
		ops[i] = server.Op{Key: req.Key, Size: req.Size, Time: req.Time}
	}
	st, err := cl.Pipeline(ops, 1)
	if err != nil {
		return err
	}
	fmt.Printf("%d GETs, %d hits, in %v: round trip p50 %.1f µs, p99 %.1f µs\n",
		st.Requests, st.Hits, st.Wall.Round(time.Millisecond), st.P50Ns/1e3, st.P99Ns/1e3)
	fmt.Printf("trained %d model(s) while serving\n\n", len(rv.TrainStats))

	// The counters the STATS verb replies with, and the one-line METRICS
	// snapshot ravencached prints when it exits.
	c := srv.Stats()
	fmt.Printf("STATS %d %d %d %d (OHR %.4f, BHR %.4f)\n", c.Requests, c.Hits, c.ReqBytes, c.HitBytes, c.OHR(), c.BHR())
	fmt.Printf("final metrics: %s\n", srv.Metrics().Line())
	return nil
}
