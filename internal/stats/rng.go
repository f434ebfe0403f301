// Package stats provides the statistical substrate shared by the rest
// of the repository: seeded random variate generation for the
// distributions used by the trace generators and by Raven's Monte
// Carlo eviction rule, summary statistics, percentiles, empirical
// CDFs, and log-binned histograms used by the trace analyzers.
//
// Everything is deterministic given a seed; no package-level mutable
// state is used, so independent generators never interfere.
package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the variate generators used throughout the
// repository. Its stream is math/rand's: every method returns what a
// rand.New(rand.NewSource(seed)) would, bit for bit. Only seeding
// differs — it costs O(1) instead of math/rand's 1 841-step fill
// (source.go). It is not safe for concurrent use; create one per
// goroutine.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	s := new(source)
	s.Seed(seed)
	return &RNG{r: rand.New(s)}
}

// Reseed resets the generator to the deterministic stream of seed, in
// place, without allocating and in O(1). Code that gives each work
// item its own stream uses it on one scratch generator: seeds are drawn
// serially from a master RNG, then each item's variates depend only on
// its seed — never on which worker processed it — which is how parallel
// training stays bit-exact for any worker count, and how the eviction
// win count keeps one stream per candidate.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Int63 returns a uniform int64 in [0, 1<<63). Its main use is
// drawing per-item seeds for Reseed.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PermInto fills m with a random permutation of [0, len(m)): the one
// Perm(len(m)) returns, drawn the same way, so the generator ends in
// the same state, without allocating.
func (g *RNG) PermInto(m []int) {
	for i := range m {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Uniform returns a variate uniform in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns an exponential variate with the given mean.
// It panics if mean <= 0.
func (g *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exponential mean must be positive")
	}
	return g.r.ExpFloat64() * mean
}

// Pareto returns a Pareto (type I) variate with shape alpha and the
// given scale (minimum value). The mean is scale*alpha/(alpha-1) for
// alpha > 1.
func (g *RNG) Pareto(alpha, scale float64) float64 {
	if alpha <= 0 || scale <= 0 {
		panic("stats: Pareto parameters must be positive")
	}
	u := g.r.Float64()
	for u == 0 { //lint:allow float-equal rejects an exact-zero uniform draw before taking its log
		u = g.r.Float64()
	}
	return scale * math.Pow(u, -1/alpha)
}

// ParetoMean returns a Pareto variate with shape alpha scaled so its
// expectation equals mean. For alpha <= 1 (infinite mean) the scale is
// chosen so the median equals mean instead, which keeps generated
// traces finite while preserving the heavy tail.
func (g *RNG) ParetoMean(alpha, mean float64) float64 {
	var scale float64
	if alpha > 1 {
		scale = mean * (alpha - 1) / alpha
	} else {
		scale = mean / math.Pow(2, 1/alpha) // median = scale * 2^(1/alpha)
	}
	return g.Pareto(alpha, scale)
}

// LogNormal returns exp(N(mu, sigma^2)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}
