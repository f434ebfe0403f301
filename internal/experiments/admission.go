package experiments

import (
	"fmt"

	"raven/internal/policy"
	"raven/internal/sim"
	"raven/internal/trace"
)

// Admission evaluates the learned admission front-end on a
// one-hit-wonder-heavy CDN-like synthetic trace (many objects, few
// repeats, Pareto interarrivals): Raven under admit-all, the
// doorkeeper frequency front, and the full learned pipeline. The
// EXPERIMENTS.md "Admission front-end" entry records this table.
func (r *Runner) Admission() *Report {
	rep := &Report{ID: "admission", Title: "Learned admission front-end, one-hit-wonder-heavy trace"}
	rep.Header = []string{"mode", "OHR", "reject rate"}

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

	modes := []struct{ label, mode string }{
		{"admit-all", policy.AdmitOff},
		{"doorkeeper", policy.AdmitDoorkeeper},
		{"learned", policy.AdmitLearned},
	}
	for _, m := range modes {
		res := r.replay(t, "raven", capacity, sim.Options{WarmupFrac: prodWarmup}, func(o *policy.Options) {
			o.ScoreCache = true // admission quality, not decision latency
			o.Admission = policy.AdmissionOptions{Mode: m.mode}
		})
		misses := res.Stats.Admissions + res.Stats.Rejections
		reject := 0.0
		if misses > 0 {
			reject = float64(res.Stats.Rejections) / float64(misses)
		}
		r.logf("  admission %-16s OHR=%.4f reject=%.3f", m.label, res.OHR, reject)
		rep.Rows = append(rep.Rows, []string{
			m.label, fmt.Sprintf("%.4f", res.OHR), fmt.Sprintf("%.3f", reject),
		})
	}
	rep.Notes = append(rep.Notes,
		"trace: Pareto renewals, objects = requests/3 (heavy one-hit-wonder traffic), capacity = requests/300 objects",
		"learned = doorkeeper + MDN predicted-reuse check")
	return rep
}
