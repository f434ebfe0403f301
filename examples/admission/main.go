// Admission: front Raven with the learned admission pipeline and
// compare against admit-all on a one-hit-wonder-heavy workload —
// PolicyOptions.Admission is the whole admission API.
package main

import (
	"fmt"
	"log"

	"raven"
)

func main() {
	// A CDN-like synthetic workload: Pareto interarrivals over a large
	// object population, so a big fraction of objects are requested
	// exactly once. Admit-all caches spend capacity on those one-hit
	// wonders; the admission front-end filters them.
	tr := raven.SyntheticTrace(raven.SynthConfig{
		Objects:      20000,
		Requests:     200000,
		Interarrival: raven.Pareto,
		Seed:         1,
	})

	const capacity = 500 // objects (all sizes are 1)

	for _, cfg := range []struct {
		label string
		opts  raven.PolicyOptions
	}{
		{"admit-all", raven.PolicyOptions{}},
		{"doorkeeper", raven.PolicyOptions{
			Admission: raven.AdmissionOptions{Mode: raven.AdmitDoorkeeper},
		}},
		{"learned", raven.PolicyOptions{
			Admission: raven.AdmissionOptions{Mode: raven.AdmitLearned},
		}},
	} {
		opts := cfg.opts
		opts.Capacity = capacity
		opts.TrainWindow = tr.Duration() / 8
		opts.Seed = 7
		p, err := raven.NewPolicy("raven", opts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := raven.Simulate(tr, p, raven.SimOptions{
			Capacity:   capacity,
			WarmupFrac: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s OHR %.4f  (%d admissions, %d rejections)\n",
			cfg.label, res.OHR, res.Stats.Admissions, res.Stats.Rejections)
	}
}
