package raven_test

import (
	"testing"

	"raven"
	"raven/internal/core"
	"raven/internal/ml/gbm"
	"raven/internal/nn"
	"raven/internal/stats"
)

// Micro-benchmarks of the per-operation costs §6.1.1 discusses. A paper
// table or figure is regenerated with `raven-exp -exp <id> -quick`, not
// timed here.

func benchTrace(n int) *raven.Trace {
	return raven.SyntheticTrace(raven.SynthConfig{
		Objects: 500, Requests: n, Interarrival: raven.Uniform, Seed: 1,
	})
}

// BenchmarkCacheHandleLRU measures raw engine+LRU request handling.
func BenchmarkCacheHandleLRU(b *testing.B) {
	tr := benchTrace(200000)
	p := raven.MustNewPolicy("lru", raven.PolicyOptions{Capacity: 100})
	c := raven.NewCache(100, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Handle(tr.Reqs[i%tr.Len()])
	}
}

// BenchmarkEviction measures per-eviction decision cost for the three
// learned policies plus LRU (the §6.1.1 comparison: ~3 µs LRB, ~6 µs
// LHR, ~50 µs Raven on the paper's hardware).
func BenchmarkEviction(b *testing.B) {
	for _, name := range []string{"lru", "lhd", "lhr", "lrb", "raven"} {
		b.Run(name, func(b *testing.B) {
			tr := benchTrace(20000)
			p := raven.MustNewPolicy(name, raven.PolicyOptions{
				Capacity: 100, TrainWindow: tr.Duration() / 4, Seed: 1,
			})
			c := raven.NewCache(100, p)
			// Warm up: fill the cache and train learned policies.
			for _, r := range tr.Reqs {
				c.Handle(r)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Handle(tr.Reqs[i%tr.Len()])
			}
		})
	}
}

// BenchmarkPriorityScoreMC measures the Eq. 1c Monte Carlo estimator
// over 64 candidates at M=100 (the paper's defaults).
func BenchmarkPriorityScoreMC(b *testing.B) {
	g := stats.NewRNG(1)
	mixes := make([]nn.Mixture, 64)
	for i := range mixes {
		aW := []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
		aMu := []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
		aS := []float64{-0.5, -0.5, -0.5, -0.5}
		nn.MixtureFromActivations(aW, aMu, aS, &mixes[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PriorityScoresMC(mixes, 100, g)
	}
}

// BenchmarkGBM measures LRB's substrate: training and prediction.
func BenchmarkGBMTrain(b *testing.B) {
	g := stats.NewRNG(2)
	X := make([][]float64, 5000)
	y := make([]float64, 5000)
	for i := range X {
		X[i] = []float64{g.Float64(), g.Float64(), g.Float64(), g.Float64()}
		y[i] = X[i][0]*2 + X[i][1]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gbm.Train(X, y, gbm.Config{Trees: 30, Seed: int64(i)})
	}
}

func BenchmarkGBMPredict(b *testing.B) {
	g := stats.NewRNG(3)
	X := make([][]float64, 2000)
	y := make([]float64, 2000)
	for i := range X {
		X[i] = []float64{g.Float64(), g.Float64(), g.Float64(), g.Float64()}
		y[i] = X[i][0]
	}
	m := gbm.Train(X, y, gbm.Config{Trees: 30, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(X[i%len(X)])
	}
}

// BenchmarkTraceGeneration measures the synthetic generator.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		raven.SyntheticTrace(raven.SynthConfig{
			Objects: 1000, Requests: 100000, Interarrival: raven.Pareto, Seed: int64(i),
		})
	}
}
