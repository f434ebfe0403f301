// CDN scenario: a Wikipedia-like workload (heavy-tailed object sizes,
// diurnal drift, one-hit wonders) served through caches with the
// paper's §5.1.4 CDN latency model. Compares Raven's BHR-oriented
// variant with LRB-style learning and classic heuristics, and reports
// the WAN-traffic and latency consequences — the Fig. 9/10 story.
package main

import (
	"fmt"
	"log"

	"raven"
)

func main() {
	tr := raven.ProductionTrace(raven.Wiki18, 0.2, 3)
	capacity := int64(float64(tr.UniqueBytes()) * 0.04)
	fmt.Printf("wiki18-like: %d requests, %d objects, %.1f MB unique, cache %.1f MB\n\n",
		tr.Len(), tr.UniqueObjects(),
		float64(tr.UniqueBytes())/(1<<20), float64(capacity)/(1<<20))

	opts := raven.SimOptions{
		Capacity:   capacity,
		Net:        raven.CDNNetModel(),
		WarmupFrac: 0.3,
	}
	polOpts := raven.PolicyOptions{Capacity: capacity, TrainWindow: tr.Duration() / 8, Seed: 5}

	fmt.Printf("%-10s %8s %8s %12s %12s\n", "policy", "OHR", "BHR", "backendMB", "avgLatency")
	for _, name := range []string{"lru", "gdsf", "lrb", "raven"} {
		res, err := raven.Simulate(tr, raven.MustNewPolicy(name, polOpts), opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8.4f %8.4f %12.1f %12v\n",
			name, res.OHR, res.BHR,
			float64(res.Net.BackendBytes)/(1<<20), res.Net.AvgLatency.Round(1e5))
	}
	fmt.Println("\nhigher BHR → less WAN traffic to the origin and lower mean latency (§5.2.2)")
}
