package experiments

import (
	"fmt"

	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Admission evaluates the learned admission + prefetching front-end on
// a one-hit-wonder-heavy CDN-like synthetic trace (many objects, few
// repeats, Pareto interarrivals): Raven under admit-all, the
// doorkeeper frequency front, the full learned pipeline, and the
// learned pipeline with the MDN prefetch queue armed. The EXPERIMENTS.md
// "Admission & prefetching" entry records this table.
func (r *Runner) Admission() *Report {
	rep := &Report{ID: "admission", Title: "Learned admission + prefetching front-end, one-hit-wonder-heavy trace"}
	rep.Header = []string{"mode", "OHR", "reject rate", "prefetch hits", "prefetch wasted"}

	requests := int(150000 * r.Cfg.Scale)
	if r.Cfg.Quick {
		requests = 30000
	}
	t := trace.Synthetic(trace.SynthConfig{
		Objects:      requests / 3,
		Requests:     requests,
		Interarrival: trace.Pareto,
		Seed:         r.Cfg.Seed,
	})
	capacity := int64(requests) / 300
	horizon := t.Duration() / 8

	modes := []struct {
		label string
		adm   policy.AdmissionOptions
		pf    policy.PrefetchOptions
	}{
		{"admit-all", policy.AdmissionOptions{}, policy.PrefetchOptions{}},
		{"prefetch-only", policy.AdmissionOptions{}, policy.PrefetchOptions{Horizon: horizon}},
		{"doorkeeper", policy.AdmissionOptions{Mode: policy.AdmitDoorkeeper}, policy.PrefetchOptions{}},
		{"learned", policy.AdmissionOptions{Mode: policy.AdmitLearned}, policy.PrefetchOptions{}},
		{"learned+prefetch", policy.AdmissionOptions{Mode: policy.AdmitLearned},
			policy.PrefetchOptions{Horizon: horizon}},
	}
	for _, m := range modes {
		o := r.polOpts(t, capacity)
		o.ScoreCache = true // admission quality, not decision latency
		o.Admission = m.adm
		o.Prefetch = m.pf
		p := policy.MustNew("raven", o)
		res := r.simulate(t, p, sim.Options{
			Capacity: capacity, Seed: r.Cfg.Seed, WarmupFrac: prodWarmup,
		})
		misses := res.Stats.Admissions + res.Stats.Rejections
		reject := 0.0
		if misses > 0 {
			reject = float64(res.Stats.Rejections) / float64(misses)
		}
		r.logf("  admission %-16s OHR=%.4f reject=%.3f", m.label, res.OHR, reject)
		rep.Rows = append(rep.Rows, []string{
			m.label, fmt.Sprintf("%.4f", res.OHR), fmt.Sprintf("%.3f", reject),
			fmt.Sprintf("%d", res.Stats.PrefetchHits),
			fmt.Sprintf("%d", res.Stats.PrefetchWasted),
		})
	}
	rep.Notes = append(rep.Notes,
		"trace: Pareto renewals, objects = requests/3 (heavy one-hit-wonder traffic), capacity = requests/300 objects",
		"learned = doorkeeper + MDN predicted-reuse check; prefetch horizon = trace duration / 8")
	return rep
}
