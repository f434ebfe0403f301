// Nonstationary workload: the object popularity ranking flips halfway
// through the trace — the regime the paper's §2.4/§4.2 design targets.
// Raven retrains each window and adapts; frequency heuristics carry
// stale popularity across the flip. The example prints per-phase hit
// ratios so the adaptation is visible.
package main

import (
	"fmt"

	"raven"
	"raven/internal/stats"
)

const objects, requests, capacity = 500, 120000, 60

// flipTrace builds a Zipf workload whose popularity ranking reverses
// at the midpoint.
func flipTrace() *raven.Trace {
	g := stats.NewRNG(1)
	z := stats.NewZipf(objects, 1.0)
	tr := &raven.Trace{Name: "popularity-flip"}
	t := 0.0
	for i := 0; i < requests; i++ {
		t += g.Exponential(1)
		rank := z.Sample(g)
		key := rank
		if i >= requests/2 {
			key = objects - 1 - rank // ranking reversed
		}
		tr.Reqs = append(tr.Reqs, raven.Request{
			Time: int64(t * 16), Key: raven.Key(key), Size: 1,
		})
	}
	return tr
}

func phaseOHR(tr *raven.Trace, p raven.Policy, capacity int64, phases int) []float64 {
	c := raven.NewCache(capacity, p)
	out := make([]float64, 0, phases)
	per := tr.Len() / phases
	hits := 0
	for i, r := range tr.Reqs {
		if c.Handle(r) {
			hits++
		}
		if (i+1)%per == 0 {
			out = append(out, float64(hits)/float64(per))
			hits = 0
		}
	}
	return out
}

func main() {
	fmt.Println("popularity ranking flips at the midpoint (phase 4/8)")
	fmt.Printf("%-8s", "policy")
	for i := 1; i <= 8; i++ {
		fmt.Printf("  ph%-4d", i)
	}
	fmt.Println()

	mk := func(name string) raven.Policy {
		return raven.MustNewPolicy(name, raven.PolicyOptions{Capacity: capacity, Seed: 3})
	}
	tr := flipTrace()
	tw := tr.Duration() / 10
	rv := raven.NewRaven(raven.RavenConfig{TrainWindow: tw, Capacity: capacity, Seed: 5})

	for _, p := range []raven.Policy{mk("lfu"), mk("lru"), rv} {
		ohrs := phaseOHR(tr, p, capacity, 8)
		fmt.Printf("%-8s", p.Name())
		for _, v := range ohrs {
			fmt.Printf("  %.3f", v)
		}
		fmt.Println()
	}
	fmt.Println("\nLFU's stale counters drag after the flip; Raven recovers after retraining")
	fmt.Printf("(Raven trained %d windows)\n", len(rv.TrainStats))
}
