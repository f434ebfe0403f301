package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

const fdEps = 1e-6

// numericalGrad evaluates dLoss/dw at w via central differences.
func numericalGrad(w *float64, loss func() float64) float64 {
	orig := *w
	*w = orig + fdEps
	lp := loss()
	*w = orig - fdEps
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * fdEps)
}

func checkClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	if diff/scale > tol {
		t.Errorf("%s: got %.8g want %.8g (rel diff %.3g)", name, got, want, diff/scale)
	}
}

func TestMixtureFromActivationsNormalized(t *testing.T) {
	aW := []float64{0.3, -1.2, 2.0}
	aMu := []float64{0, 1, -1}
	aS := []float64{0.1, -0.5, 0.3}
	var m Mixture
	MixtureFromActivations(aW, aMu, aS, &m)
	sum := 0.0
	for _, w := range m.W {
		if w <= 0 {
			t.Fatalf("non-positive weight %v", w)
		}
		sum += w
	}
	checkClose(t, "weights sum", sum, 1, 1e-12)
	for i, s := range m.S {
		checkClose(t, "stddev exp", s, math.Exp(aS[i]), 1e-12)
	}
}

func TestMixtureLogPDFMatchesSingleLogNormal(t *testing.T) {
	var m Mixture
	MixtureFromActivations([]float64{0}, []float64{0.5}, []float64{math.Log(0.7)}, &m)
	r := 1.3
	want := logNormLogPDF(math.Log(r), 0.5, 0.7, math.Log(0.7))
	checkClose(t, "single-component logpdf", m.LogPDF(r), want, 1e-9)
}

func TestMixtureSurvivalBounds(t *testing.T) {
	var m Mixture
	MixtureFromActivations([]float64{0.2, -0.4}, []float64{0, 1}, []float64{0, 0.2}, &m)
	prev := 1.0
	for _, v := range []float64{1e-6, 0.1, 1, 10, 1e6} {
		s := m.Survival(v)
		if s < 0 || s > 1 {
			t.Fatalf("survival out of range at v=%v: %v", v, s)
		}
		if s > prev+1e-12 {
			t.Fatalf("survival not non-increasing at v=%v: %v > %v", v, s, prev)
		}
		prev = s
		checkClose(t, "cdf+survival", m.CDF(v)+s, 1, 1e-12)
	}
}

func TestNLLGradFiniteDifference(t *testing.T) {
	aW := []float64{0.4, -0.3, 0.9}
	aMu := []float64{-0.2, 0.6, 0.1}
	aS := []float64{0.2, -0.1, 0.4}
	r := 0.8

	lossAt := func() float64 {
		var m Mixture
		MixtureFromActivations(aW, aMu, aS, &m)
		d := make([]float64, 3)
		return m.NLLGrad(r, d, append([]float64(nil), d...), append([]float64(nil), d...))
	}
	var m Mixture
	MixtureFromActivations(aW, aMu, aS, &m)
	dW := make([]float64, 3)
	dMu := make([]float64, 3)
	dS := make([]float64, 3)
	m.NLLGrad(r, dW, dMu, dS)

	for i := 0; i < 3; i++ {
		checkClose(t, "dAW", dW[i], numericalGrad(&aW[i], lossAt), 1e-5)
		checkClose(t, "dAMu", dMu[i], numericalGrad(&aMu[i], lossAt), 1e-5)
		checkClose(t, "dAS", dS[i], numericalGrad(&aS[i], lossAt), 1e-5)
	}
}

func TestSurvivalNLLGradFiniteDifference(t *testing.T) {
	aW := []float64{0.1, -0.7}
	aMu := []float64{0.3, -0.4}
	aS := []float64{-0.2, 0.5}
	v := 1.7

	lossAt := func() float64 {
		var m Mixture
		MixtureFromActivations(aW, aMu, aS, &m)
		d := make([]float64, 2)
		return m.SurvivalNLLGrad(v, d, append([]float64(nil), d...), append([]float64(nil), d...))
	}
	var m Mixture
	MixtureFromActivations(aW, aMu, aS, &m)
	dW := make([]float64, 2)
	dMu := make([]float64, 2)
	dS := make([]float64, 2)
	m.SurvivalNLLGrad(v, dW, dMu, dS)

	for i := 0; i < 2; i++ {
		checkClose(t, "surv dAW", dW[i], numericalGrad(&aW[i], lossAt), 1e-5)
		checkClose(t, "surv dAMu", dMu[i], numericalGrad(&aMu[i], lossAt), 1e-5)
		checkClose(t, "surv dAS", dS[i], numericalGrad(&aS[i], lossAt), 1e-5)
	}
}

func TestMixtureSampleMatchesMoments(t *testing.T) {
	var m Mixture
	MixtureFromActivations([]float64{0, 0}, []float64{0, 2}, []float64{math.Log(0.3), math.Log(0.3)}, &m)
	g := stats.NewRNG(7)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += m.Sample(g)
	}
	got := sum / float64(n)
	checkClose(t, "sample mean vs analytic mean", got, m.Mean(), 0.02)
}

func TestGRUStepDeterministicAndBounded(t *testing.T) {
	g := stats.NewRNG(1)
	u := newGRU(newSlab(gruParams(8)), "g", 8, g)
	h1 := make([]float64, 8)
	h2 := make([]float64, 8)
	u.Step(0.5, h1, h1)
	u.Step(0.5, h2, h2)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("GRU step not deterministic at %d: %v vs %v", i, h1[i], h2[i])
		}
		if math.Abs(h1[i]) > 1 {
			t.Fatalf("GRU state out of (-1,1) at %d: %v", i, h1[i])
		}
	}
}

// TestNetGradFiniteDifference verifies the full network gradient
// (recurrent BPTT + MLP + MDN heads + survival term) against central
// differences on a random subset of every parameter tensor. The
// subtest carries the name the suite lists the check under.
func TestNetGradFiniteDifference(t *testing.T) {
	t.Run("gru", func(t *testing.T) {
		net := NewNet(Config{Hidden: 4, MLPHidden: 6, K: 3, TimeScale: 1, Seed: 3})
		seq := &Sequence{
			Taus:     []float64{0.9, 2.1, 0.4, 1.5},
			Size:     123,
			Survival: 2.2,
		}
		tc := TrainConfig{MaxSeq: 16}
		tc.Defaults()

		lossAt := func() float64 {
			zero(net.all.G)
			l, _ := net.forwardBackward(new(trainArena), seq, stats.NewRNG(99), tc, true)
			return l
		}

		// Analytic gradients.
		zero(net.all.G)
		net.forwardBackward(new(trainArena), seq, stats.NewRNG(99), tc, true)
		analytic := make(map[string][]float64)
		for _, p := range net.params {
			analytic[p.Name] = append([]float64(nil), p.G...)
		}

		rng := stats.NewRNG(5)
		for _, p := range net.params {
			// Check up to 5 random entries per tensor.
			n := len(p.W)
			checks := 5
			if n < checks {
				checks = n
			}
			for c := 0; c < checks; c++ {
				i := rng.Intn(n)
				num := numericalGrad(&p.W[i], lossAt)
				checkClose(t, p.Name, analytic[p.Name][i], num, 2e-4)
			}
		}
	})
}

// TestCellStateContracts checks that stepping with out aliasing prev
// (how StepEmbed and training advance a state in place) matches
// non-aliased stepping.
func TestCellStateContracts(t *testing.T) {
	c := newGRU(newSlab(gruParams(6)), "gru", 6, stats.NewRNG(2))
	a := make([]float64, c.HiddenN)
	b := make([]float64, c.HiddenN)
	c.Step(0.7, a, b) // non-aliased
	c.Step(0.7, a, a) // aliased
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("aliased step diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFitLearnsConstantResidual trains on sequences whose
// interarrivals are all ~2.0 and checks the model's predicted mean
// residual lands in a sensible range.
func TestFitLearnsConstantResidual(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	net := NewNet(Config{Hidden: 6, MLPHidden: 12, K: 4, TimeScale: 2, Seed: 11})
	g := stats.NewRNG(21)
	var data []Sequence
	for i := 0; i < 120; i++ {
		taus := make([]float64, 12)
		for j := range taus {
			taus[j] = 2.0 + 0.05*g.NormFloat64()
		}
		data = append(data, Sequence{Taus: taus, Size: 100})
	}
	res := net.Fit(data, TrainConfig{MaxEpochs: 40, Patience: 6, Seed: 2})
	if res.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	// Predict residual at age 1.0 (mid-interval): true residual ~1.0.
	h := net.EmbedHistoryInto(nil, []float64{2, 2, 2, 2, 2, 2})
	m := predictOne(net, h, 100, 1.0)
	mean := m.Mean() * net.Cfg.TimeScale
	if mean < 0.2 || mean > 4 {
		t.Errorf("predicted mean residual %.3f ticks, want ~1", mean)
	}
	if net.Version != 1 {
		t.Errorf("Version = %d, want 1", net.Version)
	}
}

// TestFitSurvivalSeparatesHotAndCold trains on a mix of frequent
// objects (short interarrivals) and one-hit wonders (survival only)
// and checks that the cold objects' predicted residuals are larger.
func TestFitSurvivalSeparatesHotAndCold(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	net := NewNet(Config{Hidden: 6, MLPHidden: 12, K: 4, TimeScale: 1, Seed: 13})
	g := stats.NewRNG(31)
	var data []Sequence
	for i := 0; i < 100; i++ {
		taus := make([]float64, 10)
		for j := range taus {
			taus[j] = 1.0 + 0.1*g.NormFloat64()
		}
		data = append(data, Sequence{Taus: taus, Size: 100, Survival: 0.5})
	}
	for i := 0; i < 100; i++ {
		// One-hit wonders: no interarrivals, long survival.
		data = append(data, Sequence{Size: 100, Survival: 50 + 10*g.Float64()})
	}
	net.Fit(data, TrainConfig{MaxEpochs: 40, Patience: 6, Seed: 4})

	hHot := net.EmbedHistoryInto(nil, []float64{1, 1, 1, 1, 1})
	hCold := net.ZeroState()
	mHot := predictOne(net, hHot, 100, 0.5)
	mCold := predictOne(net, hCold, 100, 25)
	// One TimeScale scales both, so the normalized means compare as ticks do.
	if mCold.Mean() <= mHot.Mean() {
		t.Errorf("cold mean residual %.3f should exceed hot %.3f", mCold.Mean(), mHot.Mean())
	}
}

func TestAdamReducesQuadraticLoss(t *testing.T) {
	p := newParam("w", 3)
	p.W[0], p.W[1], p.W[2] = 5, -3, 2
	opt := NewAdam(0.1, []*Param{p})
	for i := 0; i < 500; i++ {
		for j := range p.W {
			p.G[j] = 2 * p.W[j] // d/dw of w^2
		}
		opt.Step(1)
	}
	for j, w := range p.W {
		if math.Abs(w) > 0.05 {
			t.Errorf("param %d did not converge to 0: %v", j, w)
		}
	}
}

func TestStepEmbedMatchesEmbedHistory(t *testing.T) {
	net := NewNet(Config{Hidden: 5, MLPHidden: 8, K: 2, TimeScale: 1, Seed: 9})
	taus := []float64{0.5, 3, 1.2, 0.1}
	h1 := net.EmbedHistoryInto(nil, taus)
	h2 := net.ZeroState()
	for _, tau := range taus {
		net.StepEmbed(h2, tau)
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("incremental embedding mismatch at %d", i)
		}
	}
}

// Sample draws one residual time from the mixture.
func (m *Mixture) Sample(g *stats.RNG) float64 {
	u := g.Float64()
	k := 0
	acc := 0.0
	for i := range m.W {
		acc += m.W[i]
		if u <= acc {
			k = i
			break
		}
		k = i
	}
	return math.Exp(m.Mu[k] + m.S[k]*g.NormFloat64())
}
