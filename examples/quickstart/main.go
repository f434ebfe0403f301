// Quickstart: generate a synthetic workload, run Raven against LRU and
// the offline-optimal Belady, and print hit ratios — the minimal
// end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"raven"
)

func main() {
	// A Zipf-popularity workload with Uniform interarrival times
	// (one of the paper's §3.5 synthetic traces).
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects:      1000,
		Requests:     100000,
		Interarrival: raven.Uniform,
		Seed:         1,
	})

	const capacity = 100 // objects (all sizes are 1)

	// Raven learns each object's next-arrival distribution and evicts
	// the object most likely to be needed farthest in the future. The
	// training window controls how often the model refreshes.
	rv := raven.NewRaven(raven.RavenConfig{
		TrainWindow: tr.Duration() / 8,
		Capacity:    capacity,
		Seed:        7,
	})

	opts := raven.SimOptions{
		Capacity: capacity,
		// Evaluate on the second half; the first half warms the model
		// (the paper's Appendix C.1 methodology).
		WarmupFrac: 0.5,
	}
	for _, p := range []raven.Policy{
		raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: capacity}),
		rv,
		raven.MustNewPolicy("belady", raven.PolicyOptions{Capacity: capacity}),
	} {
		res, err := raven.Simulate(tr, p, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s object hit ratio %.4f  (%d evictions, mean eviction %.0f ns)\n",
			res.Policy, res.OHR, res.Stats.Evictions, res.EvictionNanos.Mean)
	}
}
