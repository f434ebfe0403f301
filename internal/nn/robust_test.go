package nn

import (
	"math"
	"testing"
	"testing/quick"

	"raven/internal/stats"
)

// TestFitNeverProducesNaN fuzzes Fit with adversarial sequences —
// zero, tiny, huge and mixed interarrivals — and requires a fit the
// guard did not abort, finite weights and finite predictions afterwards.
func TestFitNeverProducesNaN(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		net := NewNet(Config{Hidden: 5, MLPHidden: 8, K: 3, TimeScale: 1 + 100*g.Float64(), Seed: seed})
		var data []Sequence
		for i := 0; i < 20; i++ {
			n := g.Intn(6)
			taus := make([]float64, n)
			for j := range taus {
				switch g.Intn(4) {
				case 0:
					taus[j] = 0 // degenerate
				case 1:
					taus[j] = 1e-12
				case 2:
					taus[j] = 1e9
				default:
					taus[j] = g.Float64() * 100
				}
			}
			data = append(data, Sequence{
				Taus:     taus,
				Size:     float64(g.Intn(1 << 20)),
				Survival: g.Float64() * 1000,
			})
		}
		// The guard is always on: a NaN the learner produced would show as
		// Diverged (weights restored), which must not happen either.
		if res := net.Fit(data, TrainConfig{MaxEpochs: 3, Patience: 1, Seed: seed}); res.Diverged {
			return false
		}
		for _, p := range net.params {
			for _, w := range p.W {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
			}
		}
		m := predictOne(net, net.EmbedHistoryInto(nil, []float64{1, 1e9, 0}), 12345, 1e8)
		for k := range m.W {
			if math.IsNaN(m.W[k]) || math.IsNaN(m.Mu[k]) || math.IsNaN(m.S[k]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestEmptyAndDegenerateFits exercises Fit's edge cases.
func TestEmptyAndDegenerateFits(t *testing.T) {
	net := NewNet(Config{Hidden: 4, MLPHidden: 6, K: 2, Seed: 1})
	res := net.Fit(nil, TrainConfig{})
	if res.Epochs != 0 || net.Version != 1 {
		t.Errorf("empty fit: %+v version %d", res, net.Version)
	}
	// A single sequence still trains (validation split degenerates).
	res = net.Fit([]Sequence{{Taus: []float64{1, 2}, Size: 1}}, TrainConfig{MaxEpochs: 2, Patience: 1})
	if res.Epochs == 0 {
		t.Error("single-sequence fit did not run")
	}
}

// TestMixtureSurvivalExtremeValues guards the erfc-based tail.
func TestMixtureSurvivalExtremeValues(t *testing.T) {
	var m Mixture
	MixtureFromActivations([]float64{0}, []float64{0}, []float64{0}, &m)
	if s := m.Survival(1e300); s != 0 && math.IsNaN(s) {
		t.Errorf("far-tail survival %v", s)
	}
	if s := m.Survival(1e-300); math.Abs(s-1) > 1e-9 {
		t.Errorf("near-zero survival %v, want ~1", s)
	}
	d := make([]float64, 1)
	nll := m.SurvivalNLLGrad(1e300, d, []float64{0}, []float64{0})
	if math.IsNaN(nll) || math.IsInf(nll, 0) {
		t.Errorf("survival NLL at extreme threshold: %v", nll)
	}
}
