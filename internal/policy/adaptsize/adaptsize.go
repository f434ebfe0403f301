// Package adaptsize implements an AdaptSize-style admission policy
// (Berger et al., NSDI '17) used in the paper's Fig. 19 comparison:
// objects are admitted to an LRU cache with probability exp(-size/c),
// and the size parameter c is tuned online by hill climbing on the
// windowed object hit ratio (standing in for the original's Markov
// model evaluation).
package adaptsize

import (
	"math"

	"raven/internal/cache"
	"raven/internal/policy/lru"
	"raven/internal/stats"
)

const tuneWindow = 20000 // requests between tuning steps

// AdaptSize wraps LRU eviction with probabilistic size-aware
// admission.
type AdaptSize struct {
	*lru.LRU
	rng *stats.RNG
	c   float64

	reqs, hits int64
	prevOHR    float64
	direction  float64 // multiplicative step, >1 grows c
	resident   map[cache.Key]struct{}
}

// New returns an AdaptSize policy; capacity seeds the initial
// admission parameter c.
func New(capacity int64, seed int64) *AdaptSize {
	c := float64(capacity) / 100
	if c < 1 {
		c = 1
	}
	return &AdaptSize{
		LRU:       lru.New(),
		rng:       stats.NewRNG(seed),
		c:         c,
		direction: 1.5,
		resident:  make(map[cache.Key]struct{}),
	}
}

// Name implements cache.Policy.
func (p *AdaptSize) Name() string { return "adaptsize" }

// OnHit implements cache.Policy.
func (p *AdaptSize) OnHit(req cache.Request) {
	p.observe(true)
	p.LRU.OnHit(req)
}

// OnMiss implements cache.Policy.
func (p *AdaptSize) OnMiss(req cache.Request) {
	p.observe(false)
	p.LRU.OnMiss(req)
}

// OnAdmit implements cache.Policy.
func (p *AdaptSize) OnAdmit(req cache.Request) {
	p.resident[req.Key] = struct{}{}
	p.LRU.OnAdmit(req)
}

// OnEvict implements cache.Policy.
func (p *AdaptSize) OnEvict(key cache.Key) {
	delete(p.resident, key)
	p.LRU.OnEvict(key)
}

func (p *AdaptSize) observe(hit bool) {
	p.reqs++
	if hit {
		p.hits++
	}
	if p.reqs >= tuneWindow {
		ohr := float64(p.hits) / float64(p.reqs)
		if ohr < p.prevOHR {
			// Last move hurt: reverse and damp.
			p.direction = 1 / math.Pow(p.direction, 0.5)
		}
		p.c *= p.direction
		if p.c < 1 {
			p.c = 1
		}
		p.prevOHR = ohr
		p.reqs, p.hits = 0, 0
	}
}

// Admit implements cache.Admitter: admit with probability
// exp(-size/c).
func (p *AdaptSize) Admit(req cache.Request) cache.Decision {
	if p.rng.Float64() < math.Exp(-float64(req.Size)/p.c) {
		return cache.Accepted
	}
	return cache.Reject(cache.RejectPolicy)
}
