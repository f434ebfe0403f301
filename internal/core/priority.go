package core

import (
	"math"

	"raven/internal/nn"
	"raven/internal/stats"
)

// PriorityScoresExact evaluates the exact priority score integral of
// Eq. 1b for a set of candidate residual-time mixtures:
//
//	p_j = ∫ p_{R_j}(t) Π_{k≠j} F_{R_k}(t) dt
//
// by trapezoidal quadrature on a log-time grid. The paper calls this
// rule "optimal [but] too complicated and computationally expensive"
// (§3.3) and counts it O(n²·points), but the product needs no loop
// over the other candidates: each grid point sums the n log-CDFs once
// and subtracts the candidate's own, so the cost is O(n·points) mixture
// evaluations. What dominates is the grid, which widens with the
// mixtures' log-space span up to 8 192 points. It is the reference the
// Monte Carlo estimator (Eq. 1c) is verified against in tests; the
// policy itself uses the sampled estimator.
func PriorityScoresExact(mixes []nn.Mixture, points int) []float64 {
	n := len(mixes)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = 1
		return out
	}
	if points < 16 {
		points = 16
	}
	// Bounds from components with non-negligible weight only: trained
	// mixtures often carry near-zero-weight components with enormous
	// spreads that would stretch the grid into uselessness.
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range mixes {
		for k := range mixes[i].W {
			if mixes[i].W[k] < 1e-3 {
				continue
			}
			if l := mixes[i].Mu[k] - 6*mixes[i].S[k]; l < lo {
				lo = l
			}
			if h := mixes[i].Mu[k] + 6*mixes[i].S[k]; h > hi {
				hi = h
			}
		}
	}
	if math.IsInf(lo, 1) { // all weights negligible: fall back to raw bounds
		for i := range mixes {
			for k := range mixes[i].W {
				lo = math.Min(lo, mixes[i].Mu[k]-6*mixes[i].S[k])
				hi = math.Max(hi, mixes[i].Mu[k]+6*mixes[i].S[k])
			}
		}
	}
	// Keep the grid inside the finite-double range of exp(u): beyond
	// ±700 the residual times overflow float64 and the integrand is
	// zero anyway.
	if lo < -700 {
		lo = -700
	}
	if hi > 700 {
		hi = 700
	}
	// Keep the grid fine enough for the narrowest structure: scale the
	// point count with the log-space span, within bounds.
	if span := hi - lo; span > 0 {
		need := int(span * 8)
		if need > points {
			points = need
		}
		if points > 8192 {
			points = 8192
		}
	}
	du := (hi - lo) / float64(points-1)
	logF := make([]float64, n)
	prev := make([]float64, n)
	cur := make([]float64, n)
	for p := 0; p < points; p++ {
		u := lo + du*float64(p)
		t := math.Exp(u)
		sumLogF := 0.0
		for j := range mixes {
			f := mixes[j].CDF(t)
			if f < 1e-300 {
				f = 1e-300
			}
			logF[j] = math.Log(f)
			sumLogF += logF[j]
		}
		for j := range mixes {
			// pdf in t times dt = e^u du (log-grid substitution),
			// assembled in log space so huge/tiny factors cannot
			// produce 0·Inf.
			cur[j] = math.Exp(mixes[j].LogPDF(t) + u + sumLogF - logF[j])
		}
		if p > 0 {
			for j := range mixes {
				out[j] += 0.5 * (prev[j] + cur[j]) * du
			}
		}
		copy(prev, cur)
	}
	return out
}

// mcScratch is the reusable state of the Monte Carlo priority
// estimator (Eq. 1c): one candidate's cumulative mixture weights, the
// running farthest draw (and its candidate) per draw index, the win
// counters, and the generator each candidate's draws come from. Raven
// holds one so the eviction hot path is allocation-free after warmup;
// PriorityScoresMC builds a throwaway one per call.
type mcScratch struct {
	rng   *stats.RNG // reseeded per candidate
	cum   []float64
	best  []float64
	bestJ []int
	wins  []int
}

func newMCScratch() *mcScratch { return &mcScratch{rng: stats.NewRNG(0)} }

// winsMC estimates Eq. 1c win counts: m residual draws per candidate,
// counting per draw index which candidate's sample is the farthest.
// Each candidate's seed comes off g in candidate order and its draws
// from rng reseeded to it, so a candidate's variates depend on its seed
// alone. Candidates are visited in ascending order and a draw replaces
// the running best only when strictly larger, so ties go to the lowest
// index.
func (sc *mcScratch) winsMC(mixes []nn.Mixture, m int, g *stats.RNG) []int {
	n := len(mixes)
	if cap(sc.wins) < n {
		sc.wins = make([]int, n)
	}
	sc.wins = sc.wins[:n]
	if cap(sc.best) < m {
		sc.best = make([]float64, m)
		sc.bestJ = make([]int, m)
	}
	best, bestJ := sc.best[:m], sc.bestJ[:m]
	for s := range best {
		best[s], bestJ[s] = math.Inf(-1), 0
	}
	for j := range mixes {
		sc.wins[j] = 0
		sc.rng.Reseed(g.Int63())
		mix := &mixes[j]
		sc.cum = cumWeights(mix.W, sc.cum)
		for s := range best {
			if x := sampleLogResidual(mix, sc.cum, sc.rng); x > best[s] {
				best[s], bestJ[s] = x, j
			}
		}
	}
	for _, j := range bestJ {
		sc.wins[j]++
	}
	return sc.wins
}

func cumWeights(w []float64, dst []float64) []float64 {
	dst = dst[:0]
	acc := 0.0
	for _, wi := range w {
		acc += wi
		dst = append(dst, acc)
	}
	return dst
}

// sampleLogResidual draws the LOG of a residual-time sample from the
// mixture. Since log is monotone, comparing log-samples across
// candidates gives the same argmax as comparing the samples
// themselves, and skipping the exp saves ~30% of eviction time.
func sampleLogResidual(m *nn.Mixture, cum []float64, g *stats.RNG) float64 {
	u := g.Float64()
	k := len(cum) - 1
	for i, c := range cum {
		if u <= c {
			k = i
			break
		}
	}
	return m.Mu[k] + m.S[k]*g.NormFloat64()
}

// PriorityScoresMC estimates the priority scores of Eq. 1c: draw m
// residual samples per candidate and count, per draw index, which
// candidate's sample is the farthest. The returned scores sum to 1.
// It is the allocating convenience form of the estimator; the policy
// reuses an mcScratch across evictions instead.
func PriorityScoresMC(mixes []nn.Mixture, m int, g *stats.RNG) []float64 {
	n := len(mixes)
	out := make([]float64, n)
	if n == 0 || m <= 0 {
		return out
	}
	wins := newMCScratch().winsMC(mixes, m, g)
	for j := range out {
		out[j] = float64(wins[j]) / float64(m)
	}
	return out
}
