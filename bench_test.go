package raven_test

import (
	"io"
	"sync"
	"testing"

	"raven"
	"raven/internal/core"
	"raven/internal/experiments"
	"raven/internal/ml/gbm"
	"raven/internal/nn"
	"raven/internal/stats"
)

// benchRunner is shared across the per-figure benchmarks: the first
// iteration of each experiment pays for its simulations, later
// iterations hit the memo. All benchmarks use Quick mode so the full
// suite stays CI-sized; `raven-exp -exp all` regenerates the
// full-scale numbers recorded in EXPERIMENTS.md.
var (
	benchRunner  *experiments.Runner
	benchRunOnce sync.Once
)

func runner() *experiments.Runner {
	benchRunOnce.Do(func() {
		benchRunner = experiments.NewRunner(experiments.Config{Quick: true, Seed: 42})
	})
	return benchRunner
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := runner().Run(id)
		if err != nil {
			b.Fatal(err)
		}
		rep.Fprint(io.Discard)
	}
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkFig2aSyntheticHitRatios(b *testing.B)  { benchExperiment(b, "fig2a") }
func BenchmarkFig2bcVariableSizes(b *testing.B)      { benchExperiment(b, "fig2bc") }
func BenchmarkFig3RankOrderCDF(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkFig5SurvivalAblation(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6ResidualSamplesOHR(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7ResidualSamplesTime(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8TraceCharacteristics(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9ProductionHitRatios(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10TrafficLatency(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkTable2Throughput(b *testing.B)         { benchExperiment(b, "tab2") }
func BenchmarkFig11RavenVsOPT(b *testing.B)          { benchExperiment(b, "fig11") }
func BenchmarkFig12PrototypeVsATS(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkTable3PrototypeResources(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkTable4ClusterCost(b *testing.B)        { benchExperiment(b, "tab4") }
func BenchmarkTable5CitiCompetitive(b *testing.B)    { benchExperiment(b, "tab5") }
func BenchmarkTable6RankOrderStats(b *testing.B)     { benchExperiment(b, "tab6") }
func BenchmarkTable7TrainingDataSizes(b *testing.B)  { benchExperiment(b, "tab7") }
func BenchmarkTable8OneHitWonders(b *testing.B)      { benchExperiment(b, "tab8") }
func BenchmarkFig13SizeSweepUnit(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14RankOrderPDF(b *testing.B)        { benchExperiment(b, "fig14") }
func BenchmarkFig15SizeSweepOHR(b *testing.B)        { benchExperiment(b, "fig15") }
func BenchmarkFig16SizeSweepBHR(b *testing.B)        { benchExperiment(b, "fig16") }
func BenchmarkFig17SizeBins(b *testing.B)            { benchExperiment(b, "fig17") }
func BenchmarkFig18FrequencyBins(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkFig19AdmissionAlgorithms(b *testing.B) { benchExperiment(b, "fig19") }
func BenchmarkFig20MoreCacheSizes(b *testing.B)      { benchExperiment(b, "fig20") }
func BenchmarkFig21AllBaselines(b *testing.B)        { benchExperiment(b, "fig21") }
func BenchmarkAblationDesignChoices(b *testing.B)    { benchExperiment(b, "ablations") }
func BenchmarkOverheadComparison(b *testing.B)       { benchExperiment(b, "overhead") }

// --- micro-benchmarks: the per-operation costs §6.1.1 discusses ------

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
			tr := benchTrace(60000)
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

// BenchmarkMDNInference measures one residual-distribution prediction.
func BenchmarkMDNInference(b *testing.B) {
	net := nn.NewNet(nn.Config{Hidden: 16, MLPHidden: 24, K: 8, TimeScale: 100, Seed: 1})
	h := net.EmbedHistory([]float64{10, 20, 30, 40})
	scratch := net.NewPredictScratch()
	var mix nn.Mixture
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.PredictWith(scratch, h, 1000, 50, &mix)
	}
}

// BenchmarkMDNTrainingEpoch measures one epoch over a 200-sequence
// window.
func BenchmarkMDNTrainingEpoch(b *testing.B) {
	g := stats.NewRNG(1)
	data := make([]nn.Sequence, 200)
	for i := range data {
		taus := make([]float64, 16)
		for j := range taus {
			taus[j] = 50 + 100*g.Float64()
		}
		data[i] = nn.Sequence{Taus: taus, Size: 1000, Survival: 40}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := nn.NewNet(nn.Config{Hidden: 16, MLPHidden: 24, K: 8, TimeScale: 100, Seed: int64(i)})
		net.Fit(data, nn.TrainConfig{MaxEpochs: 1, Patience: 1, Survival: true, Seed: int64(i)})
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
