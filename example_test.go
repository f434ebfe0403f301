package raven_test

import (
	"fmt"

	"raven"
)

// ExampleSimulate replays a synthetic workload through an LRU cache
// and prints the hit ratio.
func ExampleSimulate() {
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects: 100, Requests: 20000, Interarrival: raven.Poisson, Seed: 1,
	})
	p := raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: 50})
	res, err := raven.Simulate(tr, p, raven.SimOptions{Capacity: 50})
	if err != nil {
		panic(err)
	}
	fmt.Printf("requests=%d evictions>0=%v hit ratio in (0,1)=%v\n",
		res.Stats.Requests, res.Stats.Evictions > 0, res.OHR > 0 && res.OHR < 1)
	// Output:
	// requests=20000 evictions>0=true hit ratio in (0,1)=true
}

// ExampleNewPolicy shows building baselines by name and comparing them
// against the offline optimum.
func ExampleNewPolicy() {
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects: 100, Requests: 10000, Interarrival: raven.Uniform, Seed: 2,
	})
	opts := raven.SimOptions{Capacity: 30}
	ohr := func(name string) float64 {
		res, err := raven.Simulate(tr, raven.MustNewPolicy(name, raven.PolicyOptions{Capacity: 30}), opts)
		if err != nil {
			panic(err)
		}
		return res.OHR
	}
	fmt.Println("belady beats lru:", ohr("belady") > ohr("lru"))
	// Output:
	// belady beats lru: true
}

// ExampleNewCache drives a one-shard cache engine directly, request by
// request.
func ExampleNewCache() {
	c := raven.NewCache(2, raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: 2}))
	c.Handle(raven.Request{Time: 1, Key: 1, Size: 1})
	c.Handle(raven.Request{Time: 2, Key: 2, Size: 1})
	c.Handle(raven.Request{Time: 3, Key: 3, Size: 1}) // evicts key 1
	fmt.Println(c.Contains(1), c.Contains(2), c.Contains(3))
	// Output:
	// false true true
}

// ExampleNewShardedCache builds the same engine with 4 shards — one
// independent LRU per shard, each under its own lock — and drives it
// request by request.
func ExampleNewShardedCache() {
	f, err := raven.LookupPolicy("lru")
	if err != nil {
		panic(err)
	}
	c, err := raven.NewShardedCache(1024, 4, f.PerShard(raven.PolicyOptions{Capacity: 1024}, 4))
	if err != nil {
		panic(err)
	}
	for k := raven.Key(0); k < 100; k++ {
		c.Handle(raven.Request{Time: int64(k), Key: k, Size: 8})
	}
	for k := raven.Key(0); k < 100; k++ {
		c.Handle(raven.Request{Time: 100 + int64(k), Key: k, Size: 8})
	}
	st := c.StatsSnapshot()
	fmt.Printf("shards=%d requests=%d hits=%d\n", c.Shards(), st.Requests, st.Hits)
	// Output:
	// shards=4 requests=200 hits=100
}
