package nn

import (
	"math"

	"raven/internal/stats"
)

// Mixture holds the post-transform parameters of a K-component
// log-normal mixture (Eq. 2/4): weights (softmax), log-means, and
// log-standard-deviations (exp).
type Mixture struct {
	W  []float64 // mixture weights, sum to 1
	Mu []float64 // means of log residual time
	S  []float64 // std devs of log residual time (positive)

	// tmp is the 2K scratch of NLLGrad/SurvivalNLLGrad, sized on their
	// first call; a mixture that is only predicted from never has one.
	tmp []float64
}

// K returns the number of components.
func (m *Mixture) K() int { return len(m.W) }

// scratch returns two K-sized temporaries; callers overwrite every
// element before reading it.
func (m *Mixture) scratch() (a, b []float64) {
	k := m.K()
	if len(m.tmp) != 2*k {
		m.tmp = make([]float64, 2*k)
	}
	return m.tmp[:k], m.tmp[k:]
}

const (
	logSClampLo = -7.0
	logSClampHi = 7.0
	minSurvival = 1e-12
	minDensity  = 1e-300
)

// MixtureFromActivations converts raw head activations (aW pre-softmax
// weights, aMu means, aS pre-exp log-stddevs) into a Mixture,
// clamping log-stddevs for numerical stability.
func MixtureFromActivations(aW, aMu, aS []float64, out *Mixture) {
	k := len(aW)
	if out.W == nil {
		out.W = make([]float64, k)
		out.Mu = make([]float64, k)
		out.S = make([]float64, k)
	}
	maxA := math.Inf(-1)
	for _, a := range aW {
		if a > maxA {
			maxA = a
		}
	}
	sum := 0.0
	for i, a := range aW {
		out.W[i] = math.Exp(a - maxA)
		sum += out.W[i]
	}
	for i := range out.W {
		out.W[i] /= sum
	}
	copy(out.Mu, aMu)
	for i, a := range aS {
		if a < logSClampLo {
			a = logSClampLo
		}
		if a > logSClampHi {
			a = logSClampHi
		}
		out.S[i] = math.Exp(a)
	}
}

// halfLog2Pi is ½·log 2π as math.Log computes it (one ulp below the
// correctly rounded constant), so the density keeps its bits.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// logNormLogPDF returns the log density of a log-normal(mu, s) at r>0,
// given lr = log r.
func logNormLogPDF(lr, mu, s float64) float64 {
	d := (lr - mu) / s
	return -lr - math.Log(s) - halfLog2Pi - 0.5*d*d
}

// LogPDF returns log p(r) under the mixture (Eq. 4). r must be > 0.
func (m *Mixture) LogPDF(r float64) float64 {
	maxL := math.Inf(-1)
	k := m.K()
	lr := math.Log(r)
	ls := make([]float64, k)
	for i := 0; i < k; i++ {
		ls[i] = math.Log(m.W[i]+minDensity) + logNormLogPDF(lr, m.Mu[i], m.S[i])
		if ls[i] > maxL {
			maxL = ls[i]
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += math.Exp(ls[i] - maxL)
	}
	return maxL + math.Log(sum)
}

// Survival returns Pr{R > v} under the mixture. v must be > 0.
func (m *Mixture) Survival(v float64) float64 {
	lv := math.Log(v)
	s := 0.0
	for i := range m.W {
		u := (lv - m.Mu[i]) / m.S[i]
		s += m.W[i] * 0.5 * math.Erfc(u/math.Sqrt2)
	}
	return s
}

// CDF returns Pr{R <= v} (used by the exact priority score, Eq. 1b).
func (m *Mixture) CDF(v float64) float64 { return 1 - m.Survival(v) }

// Mean returns the mixture mean E[R] = Σ w_k exp(mu_k + s_k²/2).
func (m *Mixture) Mean() float64 {
	s := 0.0
	for i := range m.W {
		s += m.W[i] * math.Exp(m.Mu[i]+0.5*m.S[i]*m.S[i])
	}
	return s
}

// Sample draws one residual time from the mixture.
func (m *Mixture) Sample(g *stats.RNG) float64 {
	u := g.Float64()
	k := 0
	acc := 0.0
	for i := range m.W {
		acc += m.W[i]
		if u <= acc {
			k = i
			break
		}
		k = i
	}
	return math.Exp(m.Mu[k] + m.S[k]*g.NormFloat64())
}

// NLLGrad computes the negative log-likelihood −log p(r) and
// accumulates its gradients w.r.t. the raw head activations into
// (dAW, dAMu, dAS). The mixture must have been produced by
// MixtureFromActivations from those activations.
func (m *Mixture) NLLGrad(r float64, dAW, dAMu, dAS []float64) float64 {
	k := m.K()
	lr := math.Log(r)
	ls, _ := m.scratch()
	maxL := math.Inf(-1)
	for i := 0; i < k; i++ {
		ls[i] = math.Log(m.W[i]+minDensity) + logNormLogPDF(lr, m.Mu[i], m.S[i])
		if ls[i] > maxL {
			maxL = ls[i]
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		ls[i] = math.Exp(ls[i] - maxL)
		sum += ls[i]
	}
	nll := -(maxL + math.Log(sum))
	for i := 0; i < k; i++ {
		post := ls[i] / sum // responsibility z_k
		d := (lr - m.Mu[i]) / m.S[i]
		dAW[i] += m.W[i] - post
		dAMu[i] += -post * d / m.S[i]
		dAS[i] += post * (1 - d*d)
	}
	return nll
}

// SurvivalNLLGrad computes −log Pr{R > v} and accumulates gradients
// w.r.t. the raw head activations (the survival term of Eq. 5).
func (m *Mixture) SurvivalNLLGrad(v float64, dAW, dAMu, dAS []float64) float64 {
	k := m.K()
	lv := math.Log(v)
	q, u := m.scratch()
	s := 0.0
	for i := 0; i < k; i++ {
		u[i] = (lv - m.Mu[i]) / m.S[i]
		q[i] = 0.5 * math.Erfc(u[i]/math.Sqrt2)
		s += m.W[i] * q[i]
	}
	if s < minSurvival {
		s = minSurvival
	}
	nll := -math.Log(s)
	for i := 0; i < k; i++ {
		phi := math.Exp(-0.5*u[i]*u[i]) / math.Sqrt(2*math.Pi)
		dAW[i] += m.W[i] - m.W[i]*q[i]/s
		dAMu[i] += -m.W[i] * phi / (s * m.S[i])
		dAS[i] += -m.W[i] * phi * u[i] / s
	}
	return nll
}
