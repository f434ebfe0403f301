// Package lhr implements a hazard-rate caching policy in the spirit of
// LHR (Yan, Li & Towsley, CoNEXT '21), the paper's "HRO" online
// optimum: object request processes are modelled as Poisson, per-object
// rates are estimated from recent interarrivals, and eviction removes
// the object with the lowest probability of a hit within the estimated
// eviction horizon. The original's admission control (admit only if
// the newcomer's value exceeds the would-be victim's) is available via
// WithAdmission for the Fig. 19 comparison.
package lhr

import (
	"math"

	"raven/internal/cache"
	"raven/internal/stats"
)

// Goal selects the value function, mirroring Raven's §3.4 variants.
type Goal int

// Value functions.
const (
	// GoalOHR values each object by its hit probability per byte of
	// capacity, favouring small hot objects.
	GoalOHR Goal = iota
	// GoalBHR values each object by its hit probability (a hit saves
	// its own size in backend bytes per byte cached).
	GoalBHR
)

const (
	ewmaAlpha = 0.3
	sampleN   = 64
)

type rate struct {
	lastAccess int64
	ewmaTau    float64 // EWMA interarrival; 0 = unknown (seen once)
}

// LHR is the policy.
type LHR struct {
	goal      Goal
	admission bool
	rng       *stats.RNG

	hist map[cache.Key]*rate
	set  *cache.SampledSet[int64] // resident keys -> size
	scr  []int
	now  int64

	// horizon estimation: EWMA of observed eviction ages.
	horizon float64
	// meanRate is a population EWMA of observed request rates, the
	// prior assigned to once-seen objects (cold objects are far more
	// likely to be one-hit wonders than instant repeaters).
	meanRate float64
}

// Option configures an LHR policy.
type Option func(*LHR)

// WithAdmission enables the original LHR admission control.
func WithAdmission() Option { return func(p *LHR) { p.admission = true } }

// New returns an LHR policy with the given goal.
func New(goal Goal, seed int64, opts ...Option) *LHR {
	p := &LHR{
		goal:    goal,
		rng:     stats.NewRNG(seed),
		hist:    make(map[cache.Key]*rate),
		set:     cache.NewSampledSet[int64](),
		horizon: 1,
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements cache.Policy.
func (p *LHR) Name() string {
	if p.admission {
		return "lhr-adm"
	}
	return "lhr"
}

func (p *LHR) observe(req cache.Request) {
	p.now = req.Time
	r, ok := p.hist[req.Key]
	if !ok {
		p.hist[req.Key] = &rate{lastAccess: req.Time}
		if len(p.hist) > 4*p.set.Len()+100000 {
			p.gc()
		}
		return
	}
	tau := float64(req.Time - r.lastAccess)
	if tau < 1 {
		tau = 1
	}
	if r.ewmaTau == 0 { //lint:allow float-equal exact zero marks uninitialized EWMA state
		r.ewmaTau = tau
	} else {
		r.ewmaTau = (1-ewmaAlpha)*r.ewmaTau + ewmaAlpha*tau
	}
	if p.meanRate == 0 { //lint:allow float-equal exact zero marks uninitialized EWMA state
		p.meanRate = 1 / tau
	} else {
		p.meanRate = 0.999*p.meanRate + 0.001/tau
	}
	r.lastAccess = req.Time
}

func (p *LHR) gc() {
	for k, r := range p.hist {
		if _, resident := p.set.Get(k); !resident && float64(p.now-r.lastAccess) > 20*p.horizon {
			delete(p.hist, k)
		}
	}
}

// hitProb returns the Poisson probability that key is re-requested
// within the current horizon, conditioned on its age (memorylessness
// makes the age condition vanish — the Poisson assumption the paper
// criticizes HRO for).
func (p *LHR) hitProb(k cache.Key) float64 {
	r := p.hist[k]
	if r == nil {
		return 0
	}
	var lambda float64
	switch {
	case r.ewmaTau > 0:
		lambda = 1 / r.ewmaTau
	default:
		// Seen once: a below-population prior — cold objects are far
		// more likely one-hit wonders than instant repeaters —
		// decaying further the longer the object stays silent.
		lambda = 0.3 * p.meanRate
		if age := float64(p.now - r.lastAccess); age > 1 && 1/age < lambda {
			lambda = 1 / age
		}
		if lambda == 0 { //lint:allow float-equal exact zero marks a never-estimated rate
			age := float64(p.now-r.lastAccess) + 1
			lambda = 0.5 / age
		}
	}
	return 1 - math.Exp(-lambda*p.horizon)
}

func (p *LHR) value(k cache.Key, size int64) float64 {
	hp := p.hitProb(k)
	if p.goal == GoalOHR {
		return hp / float64(size)
	}
	return hp
}

// OnHit implements cache.Policy.
func (p *LHR) OnHit(req cache.Request) { p.observe(req) }

// OnMiss implements cache.Policy.
func (p *LHR) OnMiss(req cache.Request) { p.observe(req) }

// OnAdmit implements cache.Policy.
func (p *LHR) OnAdmit(req cache.Request) { p.set.Add(req.Key, req.Size) }

// OnEvict updates the horizon estimate with the victim's residency age.
func (p *LHR) OnEvict(key cache.Key) {
	if r := p.hist[key]; r != nil {
		age := float64(p.now - r.lastAccess)
		if age > 0 {
			p.horizon = 0.99*p.horizon + 0.01*age
		}
	}
	p.set.Remove(key)
}

// Admit implements cache.Admitter when admission is enabled: the
// newcomer must be worth at least the cheapest sampled resident.
func (p *LHR) Admit(req cache.Request) cache.Decision {
	if !p.admission || p.set.Len() < sampleN {
		return cache.Accepted
	}
	if _, minVal := p.cheapest(); p.value(req.Key, req.Size) < minVal {
		return cache.Reject(cache.RejectPolicy)
	}
	return cache.Accepted
}

func (p *LHR) cheapest() (cache.Key, float64) {
	p.scr = p.set.Sample(p.rng, sampleN, p.scr)
	var victim cache.Key
	best := math.Inf(1)
	for _, i := range p.scr {
		k, sz := p.set.At(i)
		if v := p.value(k, *sz); v < best {
			best = v
			victim = k
		}
	}
	return victim, best
}

// MetadataBytesPerObject implements cache.Footprinter: last access and
// EWMA interarrival.
func (p *LHR) MetadataBytesPerObject() int64 { return 8 * 2 }

// Victim implements cache.Policy.
func (p *LHR) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	v, _ := p.cheapest()
	return v, true
}
