package core

import (
	"math"
	"testing"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
)

// inlineMean is the lognormal mixture mean as predictArrival once
// computed it inline: Σ w_k exp(mu_k + s_k²/2), each exponent clamped
// to ±700. Mixture.Mean replaces it and must keep its bits.
func inlineMean(m *nn.Mixture) float64 {
	eTau := 0.0
	for k := range m.W {
		ex := m.Mu[k] + 0.5*m.S[k]*m.S[k]
		if ex > 700 {
			ex = 700
		} else if ex < -700 {
			ex = -700
		}
		eTau += m.W[k] * math.Exp(ex)
	}
	return eTau
}

// inlineArrival is predictArrival's result on mixture m as it was
// computed with inlineMean.
func inlineArrival(m *nn.Mixture, lastSeen int64, timeScale float64) (int64, bool) {
	if !mixtureFinite(m) {
		return 0, false
	}
	next := float64(lastSeen) + timeScale*inlineMean(m)
	if math.IsNaN(next) || math.IsInf(next, 0) || next > math.MaxInt64/2 {
		return 0, false
	}
	return int64(next), true
}

// TestArrivalMeanMatchesInlineReference: Mixture.Mean has the bits of
// the inline mean it replaced, on mixtures whose exponents pass ±700,
// and PredictNextArrival returns what the inline form gives on the same
// mixture.
func TestArrivalMeanMatchesInlineReference(t *testing.T) {
	const k = 4
	g := stats.NewRNG(17)
	// Head biases that put the exponents on both sides of ±700.
	mus := []float64{-1000, -701, -699, -20, 0, 3, 640, 699, 701, 1000}
	logS := []float64{-7, -1, 0, 1, 3, 3.6, 3.7, 7}
	var m nn.Mixture
	for trial := range 2000 {
		aW, aMu, aS := make([]float64, k), make([]float64, k), make([]float64, k)
		for i := range k {
			aW[i] = 4 * g.NormFloat64()
			aMu[i] = mus[g.Intn(len(mus))] + g.NormFloat64()
			aS[i] = logS[g.Intn(len(logS))]
		}
		nn.MixtureFromActivations(aW, aMu, aS, &m)
		if got, want := m.Mean(), inlineMean(&m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Mean %v, inline %v (mixture %+v)", trial, got, want, m)
		}
	}

	// A net whose heads ignore their input: the mixture is the biases.
	r := New(Config{TrainWindow: 1 << 40, Seed: 4})
	const key = cache.Key(9)
	for i := int64(1); i <= 4; i++ {
		req := cache.Request{Time: 10 * i, Key: key, Size: 300}
		if i == 1 {
			r.OnMiss(req)
			r.OnAdmit(req)
		} else {
			r.OnHit(req)
		}
	}
	r.now = 77
	r.net = nn.NewNet(nn.Config{Hidden: 8, MLPHidden: 12, K: k, TimeScale: 50, Seed: 11})
	r.net.Version, r.topVer = 1, 1
	heads := map[string][]float64{}
	for _, p := range r.net.Params() {
		heads[p.Name] = p.W
	}
	for _, w := range [][]float64{heads["headMu.W"], heads["headS.W"], heads["headW.W"]} {
		clear(w)
	}
	oks := 0
	for trial := range 500 {
		for i := range k {
			heads["headW.b"][i] = 4 * g.NormFloat64()
			heads["headMu.b"][i] = mus[g.Intn(len(mus))] + g.NormFloat64()
			heads["headS.b"][i] = logS[g.Intn(len(logS))]
		}
		req := cache.Request{Time: r.now, Key: key, Size: 300}
		at, ok := r.PredictNextArrival(req)
		rc := r.tab.recs.At(r.tab.find(key))
		in := []nn.PredictInput{{H: r.embedding(rc), Size: 300, Age: float64(r.now - rc.lastSeen)}}
		mix := make([]nn.Mixture, 1)
		r.net.PredictBatch(r.net.NewPredictScratch(), in, mix)
		wantAt, wantOK := inlineArrival(&mix[0], rc.lastSeen, r.net.Cfg.TimeScale)
		if at != wantAt || ok != wantOK {
			t.Fatalf("trial %d: PredictNextArrival = (%d, %v), inline (%d, %v) on %+v", trial, at, ok, wantAt, wantOK, mix[0])
		}
		if ok {
			oks++
		}
	}
	if oks == 0 || oks == 500 {
		t.Errorf("%d of 500 predictions usable: want both outcomes covered", oks)
	}
}
