package core

import (
	"math"

	"raven/internal/cache"
	"raven/internal/nn"
)

// PredictNextArrival implements cache.ReusePredictor for the admission
// front-end: the model's expected next-arrival time for the object, on
// the virtual clock. ok is false when no usable prediction exists (no
// trained model, health in Fallback, no history for the key, or a
// non-finite mixture). A Degraded model still predicts, as it still
// decides evictions.
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
// requested at the given size: lastSeen + TimeScale * E[exp(z)] where z
// is the predicted log-residual mixture — its lognormal mean,
// Mixture.Mean. The one row goes through PredictBatch, as eviction's
// candidates do. It is the mean of the residual itself, not the score
// cache's exp of its mean log (fastpath.go stampArrival); like the
// stamp, it consumes no RNG, so admission never perturbs the eviction
// stream.
func (r *Raven) predictArrival(rc *rec, size int64) (int64, bool) {
	if r.pred == nil {
		r.pred = r.net.NewPredictScratch()
	}
	in := [1]nn.PredictInput{{H: r.embedding(rc), Size: float64(size), Age: float64(r.now - rc.lastSeen)}}
	r.net.PredictBatch(r.pred, in[:], r.predMix[:])
	m := &r.predMix[0]
	if !mixtureFinite(m) {
		return 0, false
	}
	next := float64(rc.lastSeen) + r.net.Cfg.TimeScale*m.Mean()
	if math.IsNaN(next) || math.IsInf(next, 0) || next > math.MaxInt64/2 {
		return 0, false
	}
	return int64(next), true
}
