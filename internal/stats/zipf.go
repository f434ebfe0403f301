package stats

import (
	"math"
	"sort"
)

// Zipf samples ranks from a (generalized) Zipf distribution with any
// exponent alpha > 0, including alpha <= 1 which math/rand's Zipf
// cannot express. Probability of rank i (0-based) is proportional to
// 1/(i+1)^alpha. Sampling is by inverse-CDF binary search over a
// precomputed table, O(log n) per draw.
type Zipf struct {
	cdf   []float64
	probs []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha.
// It panics if n <= 0 or alpha < 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	if alpha < 0 {
		panic("stats: Zipf needs alpha >= 0")
	}
	z := &Zipf{cdf: make([]float64, n), probs: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		z.probs[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += z.probs[i]
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
		z.probs[i] /= sum
	}
	z.cdf[n-1] = 1 // guard against rounding
	return z
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 { return z.probs[i] }

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(g *RNG) int {
	u := g.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
