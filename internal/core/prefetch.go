package core

import (
	"math"

	"raven/internal/cache"
)

// The MDN-driven prefetch queue (Config.Prefetch; ROADMAP item 3, the
// DEAP/MUSTACHE direction): the same next-arrival distributions the
// policy spends on eviction are spent on re-warming. When an object is
// evicted but the model predicts it will be requested again within
// Prefetch.Horizon virtual ticks, it is queued; the cache engine
// drains the queue after each request (cache.Prefetcher) and re-inserts
// the object before its predicted arrival, converting the would-be
// miss into a hit.
//
// Everything here is driven by the trace's virtual clock and the
// deterministic mixture-mean predictor below — no wall clock, no RNG —
// so replays are bit-exact for every Workers value.

// prefetchEntry is one queued warm-up: the object and the virtual time
// its next arrival is predicted at.
type prefetchEntry struct {
	key  cache.Key
	size int64
	due  int64
}

// maybeEnqueuePrefetch queues an evicted object for re-warming when
// its predicted next arrival falls inside the horizon. Called from
// OnEvict; evictions triggered by a prefetch insertion itself are
// suppressed (draining) so one warm-up cannot cascade into a chain of
// them within a single drain step.
func (r *Raven) maybeEnqueuePrefetch(key cache.Key, h *objHist) {
	if r.cfg.Prefetch.Horizon <= 0 || r.draining || r.net == nil || r.health == Fallback {
		return
	}
	if len(r.pfq) >= prefetchMaxQueue {
		return
	}
	next, ok := r.predictArrival(h)
	if !ok || next <= r.now || next-r.now > r.cfg.Prefetch.Horizon {
		return
	}
	// Bounded by prefetchMaxQueue.
	r.pfq = append(r.pfq, prefetchEntry{key: key, size: h.size, due: next})
}

// NextPrefetch implements cache.Prefetcher: pop the next queued
// warm-up whose predicted arrival is still ahead of now. Entries whose
// predicted time has already passed are dropped — the arrival they
// were queued for has been and gone, so warming them would be pure
// waste.
func (r *Raven) NextPrefetch(now int64) (cache.Request, bool) {
	for len(r.pfq) > 0 {
		e := r.pfq[0]
		copy(r.pfq, r.pfq[1:])
		r.pfq = r.pfq[:len(r.pfq)-1]
		if e.due <= now {
			continue // stale: the predicted arrival already happened
		}
		// Suppress enqueueing from the evictions this insertion causes;
		// OnAdmit (or the next observe) clears the flag.
		r.draining = true
		return cache.Request{Time: now, Key: e.key, Size: e.size}, true
	}
	return cache.Request{}, false
}

// PredictNextArrival implements cache.ReusePredictor for the admission
// front-end: the model's expected next-arrival time for the object, on
// the virtual clock. ok is false when no usable prediction exists (no
// trained model, degraded health, no history for the key, or a
// non-finite mixture).
func (r *Raven) PredictNextArrival(req cache.Request) (int64, bool) {
	if r.net == nil || r.health == Fallback {
		return 0, false
	}
	h, ok := r.hists[req.Key]
	if !ok {
		return 0, false
	}
	return r.predictArrival(h)
}

// predictArrival computes the deterministic expected next arrival of h:
// lastSeen + TimeScale * E[exp(z)] where z is the predicted
// log-residual mixture — the lognormal mixture mean
// sum_k w_k * exp(mu_k + s_k^2/2), exponent-clamped like the fast
// path. Unlike the eviction score (which Monte Carlo samples), this is
// closed-form and consumes no RNG, so admission and prefetching never
// perturb the eviction stream's variates.
func (r *Raven) predictArrival(h *objHist) (int64, bool) {
	if r.pred == nil {
		r.pred = r.net.NewPredictScratch()
	}
	if h.embVersion != r.net.Version {
		h.emb = r.net.EmbedHistoryInto(h.emb, h.hist)
		h.embVersion = r.net.Version
	}
	age := float64(r.now - h.lastSeen)
	r.net.PredictWith(r.pred, h.emb, float64(h.size), age, &r.predMix)
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
	next := float64(h.lastSeen) + ts*eTau
	if math.IsNaN(next) || math.IsInf(next, 0) || next > math.MaxInt64/2 {
		return 0, false
	}
	return int64(next), true
}

// PrefetchQueueLen reports how many warm-ups are pending (tests and
// diagnostics).
func (r *Raven) PrefetchQueueLen() int { return len(r.pfq) }
