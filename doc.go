// Package raven is a from-scratch Go implementation of "Raven:
// Belady-Guided, Predictive (Deep) Learning for In-Memory and Content
// Caching" (Hu et al., CoNEXT 2022), together with every substrate the
// paper's evaluation depends on: a neural mixture-density-network
// stack, a gradient boosting machine, fourteen baseline eviction
// policies, offline optima, synthetic production-like workload
// generators, a discrete-event cache simulator with latency/traffic
// modelling, a TCP cache-server prototype, and a benchmark harness
// that regenerates every table and figure of the paper.
//
// This top-level package is the public facade. Typical use:
//
//	tr := raven.SyntheticTrace(raven.SynthConfig{
//		Objects: 1000, Requests: 100000, Interarrival: raven.Poisson,
//	})
//	p := raven.NewRaven(raven.RavenConfig{TrainWindow: tr.Duration() / 8})
//	res, err := raven.Simulate(tr, p, raven.SimOptions{Capacity: 100})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("OHR %.3f\n", res.OHR)
//
// Or, to compare against the built-in baselines by name:
//
//	p := raven.MustNewPolicy("lrb", raven.PolicyOptions{Capacity: 100})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured results.
package raven
