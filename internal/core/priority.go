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
// (§3.3): it is O(n²·points). It is the reference the Monte Carlo
// estimator (Eq. 1c) is verified against in tests; the policy itself
// uses the sampled estimator.
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
// estimator (Eq. 1c): per-candidate cumulative mixture weights, the
// n×m matrix of log-residual draws, per-candidate seeds and RNG
// streams, and the win counters. Raven holds one so the eviction hot
// path is allocation-free after warmup; PriorityScoresMC builds a
// throwaway one per call.
type mcScratch struct {
	pool  *nn.Pool
	task  func(w, j int) // pre-bound sampleCandidate, so ParallelFor takes no fresh closure
	mixes []nn.Mixture
	m     int
	cums  [][]float64
	samp  []float64
	seeds []int64
	rngs  []*stats.RNG
	wins  []int
}

func newMCScratch(pool *nn.Pool) *mcScratch {
	sc := &mcScratch{pool: pool}
	sc.task = sc.sampleCandidate
	return sc
}

// sampleCandidate fills candidate j's row of the draw matrix. It runs
// on pool workers: per the Pool contract it writes only j-addressed
// state, and its variates come from candidate j's own seeded stream,
// so the matrix is bit-identical for any worker count.
func (sc *mcScratch) sampleCandidate(w, j int) {
	mix := &sc.mixes[j]
	sc.cums[j] = cumWeights(mix.W, sc.cums[j])
	rng := sc.rngs[j]
	rng.Reseed(sc.seeds[j])
	row := sc.samp[j*sc.m : (j+1)*sc.m]
	for s := range row {
		row[s] = sampleLogResidual(mix, sc.cums[j], rng)
	}
}

// winsMC estimates Eq. 1c win counts: m residual draws per candidate,
// counting per draw index which candidate's sample is the farthest.
// Per-candidate seeds come off g serially before the parallel section,
// and the argmax reduction scans the draw matrix serially in index
// order, so the result is bit-identical for any pool size.
func (sc *mcScratch) winsMC(mixes []nn.Mixture, m int, g *stats.RNG) []int {
	n := len(mixes)
	sc.mixes, sc.m = mixes, m
	for len(sc.cums) < n {
		sc.cums = append(sc.cums, nil)
	}
	for len(sc.rngs) < n {
		sc.rngs = append(sc.rngs, stats.NewRNG(0)) // reseeded before every use
	}
	if cap(sc.seeds) < n {
		sc.seeds = make([]int64, n)
	}
	sc.seeds = sc.seeds[:n]
	if cap(sc.wins) < n {
		sc.wins = make([]int, n)
	}
	sc.wins = sc.wins[:n]
	if cap(sc.samp) < n*m {
		sc.samp = make([]float64, n*m)
	}
	sc.samp = sc.samp[:n*m]
	for j := 0; j < n; j++ {
		sc.seeds[j] = g.Int63()
		sc.wins[j] = 0
	}
	sc.pool.ParallelFor(n, sc.task)
	for s := 0; s < m; s++ {
		bestJ, bestR := 0, math.Inf(-1)
		for j := 0; j < n; j++ {
			if r := sc.samp[j*m+s]; r > bestR {
				bestR = r
				bestJ = j
			}
		}
		sc.wins[bestJ]++
	}
	sc.mixes = nil
	return sc.wins
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
	wins := newMCScratch(nil).winsMC(mixes, m, g)
	for j := range out {
		out[j] = float64(wins[j]) / float64(m)
	}
	return out
}
