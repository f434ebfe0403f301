package core

import (
	"math"

	"raven/internal/cache"
)

// PredictNextArrival implements cache.ReusePredictor for the admission
// front-end: the model's expected next-arrival time for the object, on
// the virtual clock. ok is false when no usable prediction exists (no
// trained model, degraded health, no history for the key, or a
// non-finite mixture).
func (r *Raven) PredictNextArrival(req cache.Request) (int64, bool) {
	if r.net == nil || r.Health() == Fallback {
		return 0, false
	}
	h := r.tab.find(req.Key)
	if h == 0 {
		return 0, false
	}
	return r.predictArrival(r.tab.recs.At(h), req.Size)
}

// predictArrival computes the deterministic expected next arrival of rc,
// requested at the given size:
// lastSeen + TimeScale * E[exp(z)] where z is the predicted
// log-residual mixture — the lognormal mixture mean
// sum_k w_k * exp(mu_k + s_k^2/2), exponent-clamped like the fast
// path. It is the mean of the residual itself, not the score cache's
// exp of its mean log (fastpath.go stampArrival); like the stamp, it
// consumes no RNG, so admission never perturbs the eviction stream.
func (r *Raven) predictArrival(rc *rec, size int64) (int64, bool) {
	if r.pred == nil {
		r.pred = r.net.NewPredictScratch()
	}
	age := float64(r.now - rc.lastSeen)
	r.net.PredictWith(r.pred, r.embedding(rc), float64(size), age, &r.predMix)
	if !mixtureFinite(&r.predMix) {
		return 0, false
	}
	eTau := 0.0
	for k := range r.predMix.W {
		ex := r.predMix.Mu[k] + 0.5*r.predMix.S[k]*r.predMix.S[k]
		if ex > expClamp {
			ex = expClamp
		} else if ex < -expClamp {
			ex = -expClamp
		}
		eTau += r.predMix.W[k] * math.Exp(ex)
	}
	ts := r.net.Cfg.TimeScale
	next := float64(rc.lastSeen) + ts*eTau
	if math.IsNaN(next) || math.IsInf(next, 0) || next > math.MaxInt64/2 {
		return 0, false
	}
	return int64(next), true
}
