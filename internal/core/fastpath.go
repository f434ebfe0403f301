package core

import (
	"math"
	"time"

	"raven/internal/cache"
	"raven/internal/nn"
)

// The cached-score eviction fast path (Config.ScoreCache; DESIGN.md
// "Inference fast path & SLO").
//
// The legacy estimator re-embeds, re-predicts, and re-samples every
// sampled candidate on every decision — ~650µs per eviction on the
// bench trace. The fast path gets comparable decision quality (within
// about one OHR point on the bench traces — it optimizes the paper's
// Belady surrogate directly rather than the joint win-count tournament)
// for a fraction of the work by exploiting two structural facts:
//
//  1. Scores are per-object once made absolute. Instead of the joint
//     win-count estimator (which couples all candidates and so cannot
//     be cached per object), each object is scored by its predicted
//     next-arrival TIME: lastSeen + TimeScale·exp(mean log-residual
//     over M Monte Carlo draws). Argmax over next-arrival times is
//     the paper's Belady surrogate stated directly — evict whoever
//     returns farthest in the future — and an absolute timestamp
//     stays comparable across decisions, so it can be cached.
//  2. Most candidates are clean. A cached score is invalidated only
//     when the object's history advances (observe bumps its epoch) or
//     the model is swapped (Version moves). On skewed traces the
//     sampled set is dominated by cold objects whose history has not
//     moved since their last scoring, so per decision only a handful
//     of candidates pay embed+predict+sampling.
//
// Dirty candidates are batched through one fused PredictBatch pass
// (f32 kernels when Config.Inference32) and their MC draws come off
// the policy's own RNG stream serially in slot order — no per-
// candidate Reseed (the legacy path's hidden cost: reseeding 64
// std-lib generators per decision is ~300µs by itself), and results
// are bit-identical for every Workers value because the fast path
// never fans out.

// expClamp bounds the mean log-residual before exponentiation so a
// wild mixture cannot push the score to +Inf and poison the cache.
const expClamp = 700.0

// invalidateFastPath drops every piece of fast-path state derived
// from the current network. Cached per-object scores need no sweep:
// they carry the model version and fail the stamp check lazily.
func (r *Raven) invalidateFastPath() {
	r.frozen = nil
	r.scr32 = nil
	r.pred = nil
}

// growFastScratch sizes the fast-path scratch slices for n candidates.
func (r *Raven) growFastScratch(n int) {
	if cap(r.scrMix) < n {
		r.scrMix = make([]nn.Mixture, n)
		r.scrKeys = make([]cache.Key, n)
		r.scrSize = make([]int64, n)
	}
	if cap(r.scrScore) < n {
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

// victimFast is Victim's ScoreCache decision path. Candidates with a
// valid cached score reuse it; the rest are re-scored in one fused
// pass. When Config.DecisionBudget is armed, the wall clock is checked
// at candidate-loop boundaries and an overrun abandons the decision to
// the LRU fallback (health.go sloOverrun).
func (r *Raven) victimFast() (cache.Key, bool) {
	budget := r.cfg.DecisionBudget
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget) //lint:allow wall-clock the DecisionBudget deadline is the SLO feature; replay configurations leave the budget at 0
	}
	t := r.tab
	r.scrIdx = t.sampler.Sample(r.rng, len(t.dense), r.cfg.CandidateSample, r.scrIdx)
	n := len(r.scrIdx)
	r.growFastScratch(n)
	ver := r.net.Version

	// Partition candidates by score-stamp validity, slot order.
	dirty := r.scrDirty[:0]
	for j := 0; j < n; j++ {
		rc := t.recs.at(t.dense[r.scrIdx[j]])
		sd := t.sides.at(rc.res)
		r.scrKeys[j] = rc.key
		r.scrSize[j] = rc.size
		r.scrRec[j] = rc
		if !r.forceRescore && int(sd.scoreVer) == ver && sd.scoreEp == sd.epoch {
			r.scrScore[j] = sd.score
		} else {
			// Into scratch sized by growFastScratch.
			dirty = append(dirty, j)
		}
	}
	r.scrDirty = dirty
	if r.obs != nil {
		r.obs.ScoreCacheHits.Add(int64(n - len(dirty)))
		r.obs.ScoreRescores.Add(int64(len(dirty)))
	}

	if len(dirty) > 0 {
		if ok := r.rescore(dirty, ver, budget, deadline); !ok {
			// rescore already recorded why (scoresInsane or sloOverrun);
			// this decision is served from the LRU fallback.
			return r.fallbackVictim(), true
		}
	}

	// Argmax over cached + fresh scores, serial slot order. For the
	// OHR goal the comparison weights the predicted RESIDUAL (not the
	// absolute arrival time, whose magnitude would drown the size
	// factor) by object size, mirroring the §3.4 size weighting.
	best := math.Inf(-1)
	victim := 0
	for j := 0; j < n; j++ {
		s := r.scrScore[j]
		if r.cfg.Goal == GoalOHR {
			res := s - float64(r.now)
			if res < 1 {
				res = 1
			}
			s = res * float64(r.scrSize[j])
		}
		if s > best {
			best = s
			victim = j
		}
	}
	if budget > 0 {
		r.sloMet()
	}
	return r.choose(victim), true
}

// rescoreChunk is how many dirty candidates rescore embeds, predicts,
// and stamps between deadline checks. Chunking is what lets the score
// cache warm under a tight DecisionBudget: the all-dirty decision
// right after a model swap costs far more than any sane budget, and an
// abort that stamped nothing would leave the next decision just as
// dirty — the cache would never warm and the policy would sit in LRU
// fallback forever. Completing a chunk before each check bounds an
// overrun decision at roughly budget + one chunk while guaranteeing
// every overrun still converts >= rescoreChunk candidates from dirty
// to cached, so a handful of fallback decisions warm the cache and the
// steady state meets the budget. Chunk order is slot order, so the RNG
// stream (and every score) is unchanged by the chunk size.
const rescoreChunk = 16

// rescore refreshes the embeddings of the dirty candidates, predicts
// their residual-time mixtures in fused batches, and Monte Carlo
// scores each from the policy's shared RNG stream in slot order,
// stamping scores chunk by chunk. It returns false when the decision
// must fall back (insane scores or deadline overrun, already
// recorded); scores stamped before the abort remain cached.
func (r *Raven) rescore(dirty []int, ver int, budget time.Duration, deadline time.Time) bool {
	if r.cfg.Inference32 {
		if r.frozen == nil || r.frozen.Version != ver {
			r.frozen = r.net.Freeze32()
			r.scr32 = nil
		}
		if r.scr32 == nil {
			r.scr32 = r.frozen.NewScratch()
		}
	} else if r.pred == nil {
		r.pred = r.net.NewPredictScratch()
	}
	m := r.cfg.ResidualSamples
	ts := r.net.Cfg.TimeScale
	for start := 0; start < len(dirty); start += rescoreChunk {
		end := start + rescoreChunk
		if end > len(dirty) {
			end = len(dirty)
		}
		chunk := dirty[start:end]
		for ci, j := range chunk {
			rc := r.scrRec[j]
			r.scrIn[start+ci] = nn.PredictInput{H: r.embedding(r.net, rc), Size: float64(rc.size), Age: float64(r.now - rc.lastSeen)}
		}
		in := r.scrIn[start:end]
		mixes := r.scrMix[start:end]
		if r.cfg.Inference32 {
			r.frozen.PredictBatch(r.scr32, in, mixes)
		} else {
			r.net.PredictBatch(r.pred, in, mixes)
		}
		for ci := range mixes {
			if !mixtureFinite(&mixes[ci]) {
				r.scoresInsane()
				return false
			}
		}
		// Fused MC scoring: all candidates' draws come off the shared
		// stream serially in slot order, so the sequence of variates —
		// and therefore every score — is a pure function of the trace
		// and seed.
		for ci, j := range chunk {
			if r.cfg.EvictFault != nil {
				r.cfg.EvictFault()
			}
			mix := &mixes[ci]
			r.scrCum = cumWeights(mix.W, r.scrCum)
			sum := 0.0
			for s := 0; s < m; s++ {
				sum += sampleLogResidual(mix, r.scrCum, r.rng)
			}
			lr := sum / float64(m)
			if lr > expClamp {
				lr = expClamp
			} else if lr < -expClamp {
				lr = -expClamp
			}
			rc := r.scrRec[j]
			sd := r.tab.sides.at(rc.res)
			score := float64(rc.lastSeen) + ts*math.Exp(lr)
			sd.score, sd.scoreEp, sd.scoreVer = score, sd.epoch, int32(ver)
			r.scrScore[j] = score
		}
		if r.overBudget(budget, deadline) {
			r.sloOverrun()
			return false
		}
	}
	return true
}

// overBudget reports whether an armed DecisionBudget deadline has
// passed.
func (r *Raven) overBudget(budget time.Duration, deadline time.Time) bool {
	return budget > 0 && time.Now().After(deadline) //lint:allow wall-clock the DecisionBudget deadline is the SLO feature; replay configurations leave the budget at 0
}
