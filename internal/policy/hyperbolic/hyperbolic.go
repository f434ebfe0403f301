// Package hyperbolic implements Hyperbolic caching (Blankstein et al.,
// ATC '17): sampled eviction of the object with the smallest hit rate
// per unit of residency time, optionally scaled by size.
package hyperbolic

import (
	"raven/internal/cache"
	"raven/internal/stats"
)

type meta struct {
	hits      int64
	admitTime int64
	size      int64
}

// Hyperbolic evicts, among a random sample of cached objects, the one
// minimizing hits / (now - admitTime) (divided by size when SizeAware,
// which favours keeping small objects and helps OHR for variable-size
// workloads).
type Hyperbolic struct {
	set       *cache.SampledSet[meta]
	rng       *stats.RNG
	now       int64
	sampleN   int
	sizeAware bool
	scratch   []int
}

// Option configures a Hyperbolic policy.
type Option func(*Hyperbolic)

// WithSizeAware divides the retention priority by object size.
func WithSizeAware() Option {
	return func(p *Hyperbolic) { p.sizeAware = true }
}

// New returns a Hyperbolic policy.
func New(seed int64, opts ...Option) *Hyperbolic {
	p := &Hyperbolic{
		set:     cache.NewSampledSet[meta](),
		rng:     stats.NewRNG(seed),
		sampleN: 64,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements cache.Policy.
func (p *Hyperbolic) Name() string { return "hyperbolic" }

// OnHit implements cache.Policy.
func (p *Hyperbolic) OnHit(req cache.Request) {
	p.now = req.Time
	if m := p.set.Ref(req.Key); m != nil {
		m.hits++
	}
}

// OnMiss implements cache.Policy.
func (p *Hyperbolic) OnMiss(req cache.Request) { p.now = req.Time }

// OnAdmit implements cache.Policy.
func (p *Hyperbolic) OnAdmit(req cache.Request) {
	p.set.Add(req.Key, meta{hits: 1, admitTime: req.Time, size: req.Size})
}

// OnEvict implements cache.Policy.
func (p *Hyperbolic) OnEvict(key cache.Key) { p.set.Remove(key) }

// Victim implements cache.Policy.
func (p *Hyperbolic) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	p.scratch = p.set.Sample(p.rng, p.sampleN, p.scratch)
	var victim cache.Key
	best := -1.0
	for _, i := range p.scratch {
		k, m := p.set.At(i)
		age := p.now - m.admitTime
		if age < 1 {
			age = 1
		}
		pri := float64(m.hits) / float64(age)
		if p.sizeAware {
			pri /= float64(m.size)
		}
		if best < 0 || pri < best {
			best = pri
			victim = k
		}
	}
	return victim, true
}
