package core

import (
	"math"
	"time"

	"raven/internal/cache"
	"raven/internal/nn"
)

// Eviction inference: the predict step of Victim's pipeline and the
// score cache (Config.ScoreCache; DESIGN.md "Inference fast path &
// SLO").
//
// The joint win count re-embeds, re-predicts, and re-samples every
// sampled candidate on every decision. The score cache ranks by a
// different statistic — the paper's Belady surrogate stated directly
// rather than the joint win-count tournament — for a fraction of the
// work, by exploiting two structural facts:
//
//  1. Scores are per-object once made absolute. Instead of the joint
//     win-count estimator (which couples all candidates and so cannot
//     be cached per object), each object is scored by its predicted
//     next-arrival TIME: lastSeen + TimeScale·exp(mean log-residual).
//     The MDN's components are Gaussian in log space, so that mean is
//     Σ_k w_k·μ_k in closed form. Argmax over next-arrival times is
//     the Belady surrogate — evict whoever returns farthest in the
//     future — and an absolute timestamp stays comparable across
//     decisions, so it can be cached.
//  2. Most candidates are clean. A cached score is invalidated only
//     when the object's history advances (observe bumps its epoch) or
//     the model is swapped (Version moves). On skewed traces the
//     sampled set is dominated by cold objects whose history has not
//     moved since their last scoring, so per decision only a handful
//     of candidates pay embed+predict.
//
// Under either estimator the candidates that need a mixture go through
// fused PredictBatch passes (f32 kernels when Config.Inference32). A
// stamp draws no random variate, so under the score cache the policy's
// RNG stream feeds only the candidate sampler.

// invalidateFastPath drops every piece of inference state derived
// from the current network. Cached per-object scores need no sweep:
// they carry the model version and fail the stamp check lazily.
func (r *Raven) invalidateFastPath() {
	r.scr32 = nil
	r.pred = nil
}

// growScratch sizes Victim's per-candidate scratch for n candidates.
func (r *Raven) growScratch(n int) {
	if cap(r.scrMix) < n {
		r.scrMix = make([]nn.Mixture, n)
		r.scrKeys = make([]cache.Key, n)
		r.scrSize = make([]int64, n)
		r.scrScore = make([]float64, n)
		r.scrRec = make([]*rec, n)
		r.scrDirty = make([]int, 0, n)
		r.scrIn = make([]nn.PredictInput, n)
	}
	r.scrMix = r.scrMix[:n]
	r.scrKeys = r.scrKeys[:n]
	r.scrSize = r.scrSize[:n]
	r.scrScore = r.scrScore[:n]
	r.scrRec = r.scrRec[:n]
}

// rescoreChunk is how many dirty candidates predict embeds, predicts,
// and stamps between deadline checks. Chunking is what lets the score
// cache warm under a tight DecisionBudget: the all-dirty decision
// right after a model swap costs far more than any sane budget, and an
// abort that stamped nothing would leave the next decision just as
// dirty — the cache would never warm and the policy would sit in LRU
// fallback forever. Completing a chunk before each check bounds an
// overrun decision at roughly budget + one chunk while guaranteeing
// every overrun still converts >= rescoreChunk candidates from dirty
// to cached, so a handful of fallback decisions warm the cache and the
// steady state meets the budget. A stamp depends on its own mixture
// alone, so the chunk size changes no score.
const rescoreChunk = 16

// predict refreshes the embeddings of the dirty candidates and
// predicts their residual-time mixtures into scrMix (position i of
// dirty at scrMix[i]) in fused batches. Under the score cache it also
// stamps each candidate's score, chunk by chunk. It returns false when
// the decision must fall back (insane mixture or deadline overrun,
// already recorded); scores stamped before the abort remain cached.
func (r *Raven) predict(dirty []int, ver int, budget time.Duration, deadline time.Time) bool {
	var fz *nn.Frozen32
	if r.cfg.Inference32 {
		// The copy cached on the net while its Version holds.
		fz = r.net.Freeze32()
		if r.scr32 == nil {
			r.scr32 = fz.NewScratch()
		}
	} else if r.pred == nil {
		r.pred = r.net.NewPredictScratch()
	}
	for start := 0; start < len(dirty); start += rescoreChunk {
		end := min(start+rescoreChunk, len(dirty))
		chunk := dirty[start:end]
		for ci, j := range chunk {
			rc := r.scrRec[j]
			r.scrIn[start+ci] = nn.PredictInput{H: r.embedding(rc), Size: float64(r.scrSize[j]), Age: float64(r.now - rc.lastSeen)}
		}
		in := r.scrIn[start:end]
		mixes := r.scrMix[start:end]
		if r.cfg.Inference32 {
			fz.PredictBatch(r.scr32, in, mixes)
		} else {
			r.net.PredictBatch(r.pred, in, mixes)
		}
		// Runtime sanity gate: a single non-finite mixture parameter
		// means the model's output can no longer be trusted to order
		// candidates — enter Fallback now and evict by LRU instead of
		// comparing NaNs.
		for ci := range mixes {
			if !mixtureFinite(&mixes[ci]) {
				r.scoresInsane()
				return false
			}
		}
		for ci, j := range chunk {
			if r.cfg.evictFault != nil {
				r.cfg.evictFault()
			}
			if r.cfg.ScoreCache {
				r.stampArrival(j, &mixes[ci], ver)
			}
		}
		if r.overBudget(budget, deadline) {
			r.sloOverrun()
			return false
		}
	}
	return true
}

// stampArrival scores candidate slot j by its predicted next-arrival
// time and caches the score on its side record. The mean log-residual
// Σ_k w_k·μ_k is exact, so a score is a pure function of its mixture.
func (r *Raven) stampArrival(j int, mix *nn.Mixture, ver int) {
	lr := 0.0
	for k, w := range mix.W {
		lr += w * mix.Mu[k]
	}
	lr = min(max(lr, -nn.ExpClamp), nn.ExpClamp)
	rc := r.scrRec[j]
	sd := r.tab.sides.At(rc.res)
	score := float64(rc.lastSeen) + r.net.Cfg.TimeScale*math.Exp(lr)
	sd.score, sd.scoreEp, sd.scoreVer = score, sd.epoch, int32(ver)
	r.scrScore[j] = score
}

// overBudget reports whether an armed DecisionBudget deadline has
// passed.
func (r *Raven) overBudget(budget time.Duration, deadline time.Time) bool {
	return budget > 0 && time.Now().After(deadline) //lint:allow wall-clock the DecisionBudget deadline is the SLO feature; replay configurations leave the budget at 0
}
