package experiments

import (
	"fmt"

	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Table5 reproduces Table 5 / Appendix B: competitive ratios and miss
// ratios of LRU, PredictiveMarker and Raven on the Citi-Bike-like
// station streams. Per the paper, the first 60% of each monthly trace
// is training/warmup and the remainder is evaluated; the competitive
// ratio divides each policy's misses by Belady's on the same segment.
func (r *Runner) Table5() *Report {
	rep := &Report{ID: "tab5", Title: "Citi-like dataset: competitive ratio & miss ratio (Table 5)"}
	rep.Header = []string{"policy", "competitiveRatio", "avgMissRatio"}

	months := 12
	reqs := 25000
	if r.Cfg.Quick {
		months, reqs = 3, 6000
	}
	traces := trace.CitiTraces(trace.CitiConfig{
		Months: months, Requests: reqs, Seed: r.Cfg.Seed + 9,
	})
	const capacity = 100
	const warm = 0.6

	pols := []string{"lru", "marker", "predictivemarker", "raven"}
	missSum := make(map[string]float64)
	ratioSum := make(map[string]float64)
	for _, t := range traces {
		t.AnnotateNext()
		opts := sim.Options{WarmupFrac: warm}
		// A quarter of each month is Raven's training window.
		window := func(o *policy.Options) { o.TrainWindow = t.Duration() / 4 }
		belady := r.replay(t, "belady", capacity, opts, nil)
		beladyMisses := float64(belady.Stats.Misses())
		for _, name := range pols {
			res := r.replay(t, name, capacity, opts, window)
			misses := float64(res.Stats.Misses())
			missSum[name] += 1 - res.OHR
			if beladyMisses > 0 {
				ratioSum[name] += misses / beladyMisses
			}
		}
		r.logf("  tab5 %s done", t.Name)
	}
	n := float64(len(traces))
	for _, name := range pols {
		rep.Add(name, fmt.Sprintf("%.3f", ratioSum[name]/n), fmt.Sprintf("%.3f", missSum[name]/n))
	}
	return rep
}
