package core

import (
	"math"
	"testing"
	"testing/quick"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
	"raven/internal/trace"
)

func TestPushHistBounded(t *testing.T) {
	var h []float64
	for i := 1; i <= 10; i++ {
		pushHist(&h, float64(i), 4)
	}
	want := []float64{7, 8, 9, 10}
	if len(h) != 4 {
		t.Fatalf("len = %d, want 4", len(h))
	}
	for i, v := range want {
		if h[i] != v {
			t.Errorf("h[%d] = %v, want %v", i, h[i], v)
		}
	}
}

func TestWindowRecordsInterarrivals(t *testing.T) {
	w := newWindow(0, 0, 32, stats.NewRNG(1))
	w.reset(0)
	for i, tm := range []int64{10, 30, 70} {
		w.record(cache.Request{Time: tm, Key: 5, Size: 100})
		_ = i
	}
	seqs, terms := w.sequences(100)
	if len(seqs) != 1 {
		t.Fatalf("want 1 sequence, got %d", len(seqs))
	}
	s := seqs[0]
	if len(s.Taus) != 2 || s.Taus[0] != 20 || s.Taus[1] != 40 {
		t.Errorf("taus = %v, want [20 40]", s.Taus)
	}
	if s.Survival != 30 {
		t.Errorf("survival = %v, want 30", s.Survival)
	}
	if terms != 3 {
		t.Errorf("terms = %d, want 3", terms)
	}
}

func TestWindowBudgetStopsNewObjects(t *testing.T) {
	w := newWindow(1000, 0, 32, stats.NewRNG(2))
	w.reset(0)
	for k := 0; k < 100; k++ {
		w.record(cache.Request{Time: int64(k), Key: cache.Key(k), Size: 100})
	}
	if w.sampledBytes > 1100 {
		t.Errorf("sampled bytes %d exceed budget substantially", w.sampledBytes)
	}
	// Existing sampled objects keep recording even after the budget.
	before := len(w.taus[0])
	w.record(cache.Request{Time: 500, Key: 0, Size: 100})
	if len(w.taus[0]) != before+1 {
		t.Error("existing sampled object stopped recording after budget")
	}
}

func TestWindowObjectCap(t *testing.T) {
	w := newWindow(0, 10, 32, stats.NewRNG(3))
	w.reset(0)
	for k := 0; k < 100; k++ {
		w.record(cache.Request{Time: int64(k), Key: cache.Key(k), Size: 1})
	}
	if len(w.last) > 10 {
		t.Errorf("object cap violated: %d objects sampled", len(w.last))
	}
}

func TestRavenFallsBackToLRUBeforeTraining(t *testing.T) {
	r := New(Config{TrainWindow: 1 << 40, Seed: 1}) // window never ends
	c := cache.New(3, r)
	for i, k := range []cache.Key{1, 2, 3, 4} {
		c.Handle(cache.Request{Time: int64(i), Key: k, Size: 1})
	}
	if r.Net() != nil {
		t.Fatal("model unexpectedly trained")
	}
	if c.Contains(1) {
		t.Error("LRU fallback should have evicted key 1")
	}
	for _, k := range []cache.Key{2, 3, 4} {
		if !c.Contains(k) {
			t.Errorf("key %d should be resident", k)
		}
	}
}

func TestMCConvergesToExactPriority(t *testing.T) {
	g := stats.NewRNG(17)
	mixes := make([]nn.Mixture, 5)
	for i := range mixes {
		aW := []float64{g.NormFloat64(), g.NormFloat64()}
		aMu := []float64{g.NormFloat64(), g.NormFloat64() + 1}
		aS := []float64{g.Uniform(-1, 0.5), g.Uniform(-1, 0.5)}
		nn.MixtureFromActivations(aW, aMu, aS, &mixes[i])
	}
	exact := PriorityScoresExact(mixes, 4000)
	mc := PriorityScoresMC(mixes, 200000, g)
	for j := range mixes {
		if d := math.Abs(exact[j] - mc[j]); d > 0.02 {
			t.Errorf("candidate %d: exact %.4f vs MC %.4f (diff %.4f)", j, exact[j], mc[j], d)
		}
	}
}

func TestExactPrioritySumsToOne(t *testing.T) {
	// Property: priority scores over any candidate set form a
	// distribution (they partition the event "who is farthest").
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		n := 2 + g.Intn(5)
		mixes := make([]nn.Mixture, n)
		for i := range mixes {
			aW := []float64{g.NormFloat64(), g.NormFloat64()}
			aMu := []float64{g.Uniform(-1, 1), g.Uniform(-1, 1)}
			aS := []float64{g.Uniform(-1, 0), g.Uniform(-1, 0)}
			nn.MixtureFromActivations(aW, aMu, aS, &mixes[i])
		}
		sum := 0.0
		for _, p := range PriorityScoresExact(mixes, 2000) {
			if p < -1e-9 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPriorityPrefersFartherDistribution(t *testing.T) {
	// A mixture centered far in the future must get the higher score.
	var near, far nn.Mixture
	nn.MixtureFromActivations([]float64{0}, []float64{0}, []float64{-1}, &near)
	nn.MixtureFromActivations([]float64{0}, []float64{3}, []float64{-1}, &far)
	scores := PriorityScoresExact([]nn.Mixture{near, far}, 2000)
	if scores[1] <= scores[0] {
		t.Errorf("far score %.4f should exceed near score %.4f", scores[1], scores[0])
	}
	g := stats.NewRNG(3)
	mc := PriorityScoresMC([]nn.Mixture{near, far}, 5000, g)
	if mc[1] <= mc[0] {
		t.Errorf("MC: far score %.4f should exceed near score %.4f", mc[1], mc[0])
	}
}

func TestRavenTrainsAndEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 200, Requests: 10000, Interarrival: trace.Poisson, Seed: 5,
	})
	window := tr.Duration() / 4
	r := New(Config{
		TrainWindow:     window,
		MaxTrainObjects: 300,
		Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
		Train:           nn.TrainConfig{MaxEpochs: 10, Patience: 3},
		ResidualSamples: 30,
		Seed:            7,
	})
	c := cache.New(40, r) // 40 unit-size objects
	for _, req := range tr.Reqs {
		c.Handle(req)
	}
	if r.Net() == nil {
		t.Fatal("Raven never trained a model")
	}
	if len(r.TrainStats) < 2 {
		t.Errorf("expected multiple training windows, got %d", len(r.TrainStats))
	}
	st := c.StatsSnapshot()
	if st.OHR() < 0.05 {
		t.Errorf("suspiciously low hit ratio %.3f", st.OHR())
	}
	for _, rec := range r.TrainStats {
		if rec.Objects == 0 || rec.Samples == 0 {
			t.Errorf("empty training record: %+v", rec)
		}
	}
}

func TestRavenOHRGoalUsesSizeWeight(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	// With identical residual distributions, the OHR variant must
	// prefer evicting the larger object. Construct this directly via
	// the priority computation on a trained-ish policy by running a
	// trace with two size classes and checking eviction counts favour
	// large objects.
	tr := trace.Synthetic(trace.SynthConfig{
		Objects: 100, Requests: 12000, Interarrival: trace.Poisson,
		VariableSizes: true, SizeLo: 10, SizeHi: 1000, Seed: 9,
	})
	window := tr.Duration() / 3
	mk := func(goal Goal) *cache.Sharded {
		r := New(Config{
			Goal:            goal,
			TrainWindow:     window,
			MaxTrainObjects: 200,
			Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
			Train:           nn.TrainConfig{MaxEpochs: 8, Patience: 3},
			ResidualSamples: 30,
			Seed:            11,
		})
		c := cache.New(tr.UniqueBytes()/10, r)
		for _, req := range tr.Reqs {
			c.Handle(req)
		}
		return c
	}
	ohr := mk(GoalOHR)
	bhr := mk(GoalBHR)
	if ohr.StatsSnapshot().OHR() < bhr.StatsSnapshot().OHR()-0.05 {
		t.Errorf("OHR goal (%.3f) should not lag BHR goal (%.3f) on object hits by this much",
			ohr.StatsSnapshot().OHR(), bhr.StatsSnapshot().OHR())
	}
}
