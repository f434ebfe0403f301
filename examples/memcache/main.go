// In-memory scenario: a Twitter-like key-value workload (tiny objects,
// bursty access) with the paper's in-memory latency model (100 µs
// memory, 10 ms database). Shows Raven's OHR-oriented variant cutting
// database reads versus production heuristics, and how to inspect
// Raven's training records.
package main

import (
	"fmt"
	"log"

	"raven"
)

func main() {
	tr := raven.ProductionTrace(raven.TwitterC29, 0.2, 11)
	capacity := int64(float64(tr.UniqueBytes()) * 0.02)
	fmt.Printf("twitter-c29-like: %d requests, %d keys, cache %.1f KB\n\n",
		tr.Len(), tr.UniqueObjects(), float64(capacity)/(1<<10))

	opts := raven.SimOptions{
		Capacity:   capacity,
		Net:        raven.InMemoryNetModel(),
		WarmupFrac: 0.3,
	}

	rv := raven.NewRaven(raven.RavenConfig{
		Goal:        raven.GoalOHR, // object hits matter for KV latency
		TrainWindow: tr.Duration() / 8,
		Capacity:    capacity,
		Seed:        13,
	})

	polOpts := raven.PolicyOptions{Capacity: capacity, TrainWindow: tr.Duration() / 8, Seed: 13}
	fmt.Printf("%-12s %8s %14s %14s\n", "policy", "OHR", "dbReads(MB)", "throughput")
	for _, p := range []raven.Policy{
		raven.MustNewPolicy("lru", polOpts),
		raven.MustNewPolicy("lhr", polOpts),
		rv,
	} {
		res, err := raven.Simulate(tr, p, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.4f %14.2f %11.1f KRPS\n",
			res.Policy, res.OHR,
			float64(res.Net.BackendBytes)/(1<<20), res.Net.ThroughputKRPS)
	}

	fmt.Println("\nRaven training windows:")
	for i, rec := range rv.TrainStats {
		fmt.Printf("  window %d: %5d objects, %6d samples, %2d epochs, val NLL %.3f\n",
			i+1, rec.Objects, rec.Samples, rec.Result.Epochs, rec.Result.ValNLL)
	}
}
