package nn

import "math"

// Mixture holds the post-transform parameters of a K-component
// log-normal mixture (Eq. 2/4): weights (softmax), log-means, and
// log-standard-deviations (exp).
type Mixture struct {
	W  []float64 // mixture weights, sum to 1
	Mu []float64 // means of log residual time
	S  []float64 // std devs of log residual time (positive)

	// tmp is the 2K scratch of MixtureFromActivations and of the
	// likelihood methods (LogPDF, the NLLs and their gradients), sized
	// on the first call; a Mixture is not safe for concurrent use.
	tmp []float64
}

// K returns the number of components.
func (m *Mixture) K() int { return len(m.W) }

// sized gives a Mixture built without parameters its k-component W, Mu
// and S.
func (m *Mixture) sized(k int) {
	if m.W == nil {
		m.W = make([]float64, k)
		m.Mu = make([]float64, k)
		m.S = make([]float64, k)
	}
}

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
	out.sized(len(aW))
	// The softmax's exps and the deviations' run as one pass over the
	// mixture's scratch, which holds w and s end to end.
	w, s := out.scratch()
	expArgs(aW, aS, w, s)
	expSlice(out.tmp, out.tmp)
	normalize(w, out.W)
	copy(out.Mu, aMu)
	copy(out.S, s)
}

// expArgs writes what MixtureFromActivations exponentiates: w = aW −
// max(aW), the softmax's shifted activations, and s = aS clamped to
// [logSClampLo, logSClampHi], the log-deviations.
func expArgs(aW, aS, w, s []float64) {
	maxA := math.Inf(-1)
	for _, a := range aW {
		if a > maxA {
			maxA = a
		}
	}
	for i, a := range aW {
		w[i] = a - maxA
	}
	for i, a := range aS {
		if a < logSClampLo {
			a = logSClampLo
		}
		if a > logSClampHi {
			a = logSClampHi
		}
		s[i] = a
	}
}

// normalize sets W to the softmax weights w/Σw, given the exps w.
func normalize(w, W []float64) {
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for i, v := range w {
		W[i] = v / sum
	}
}

// halfLog2Pi is ½·log 2π as math.Log computes it (one ulp below the
// correctly rounded constant), so the density keeps its bits.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// logNormLogPDF returns the log density of a log-normal(mu, s) at r>0,
// given lr = log r and logS = log s.
func logNormLogPDF(lr, mu, s, logS float64) float64 {
	d := (lr - mu) / s
	return -lr - logS - halfLog2Pi - 0.5*d*d
}

// LogPDF returns log p(r) under the mixture (Eq. 4). r must be > 0.
func (m *Mixture) LogPDF(r float64) float64 {
	_, maxL, sum, _ := m.logTerms(r)
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

// ExpClamp bounds an exponent before exponentiation, so a wild mixture
// cannot push a mean or a score to +Inf.
const ExpClamp = 700.0

// Mean returns the mixture mean E[R] = Σ w_k exp(mu_k + s_k²/2), each
// exponent clamped to ±ExpClamp.
func (m *Mixture) Mean() float64 {
	s := 0.0
	for i := range m.W {
		s += m.W[i] * math.Exp(min(max(m.Mu[i]+0.5*m.S[i]*m.S[i], -ExpClamp), ExpClamp))
	}
	return s
}

// logTerms is the likelihood half of NLLGrad: with lr = log r, it
// leaves in ls (m's scratch) each component's exp(log w_k + log p_k(r)
// − maxL) and returns lr, maxL and the sum of ls. The logs of the
// weights and of the deviations run as one pass (logSlice), the exps
// as another (expSlice).
func (m *Mixture) logTerms(r float64) (lr, maxL, sum float64, ls []float64) {
	lr = math.Log(r)
	ls, logS := m.scratch()
	logArgs(m.W, m.S, ls, logS)
	logSlice(m.tmp, m.tmp)
	maxL = m.logLikelihoods(lr, ls, logS)
	expSlice(ls, ls)
	return lr, maxL, sumOf(ls), ls
}

// logArgs writes what logTerms takes logs of: each weight plus
// minDensity, into lw, and each deviation, into ls.
func logArgs(W, S, lw, ls []float64) {
	for i, w := range W {
		lw[i] = w + minDensity
	}
	copy(ls, S)
}

// logLikelihoods turns ls, the log weights, into each component's log
// w_k + log p_k(r) − maxL, given lr = log r and logS the log-deviations,
// and returns maxL, their maximum.
func (m *Mixture) logLikelihoods(lr float64, ls, logS []float64) (maxL float64) {
	maxL = math.Inf(-1)
	for i := range ls {
		ls[i] += logNormLogPDF(lr, m.Mu[i], m.S[i], logS[i])
		if ls[i] > maxL {
			maxL = ls[i]
		}
	}
	for i := range ls {
		ls[i] -= maxL
	}
	return maxL
}

func sumOf(v []float64) (sum float64) {
	for _, x := range v {
		sum += x
	}
	return sum
}

// NLLGrad computes the negative log-likelihood −log p(r) and
// accumulates its gradients w.r.t. the raw head activations into
// (dAW, dAMu, dAS). The mixture must have been produced by
// MixtureFromActivations from those activations.
func (m *Mixture) NLLGrad(r float64, dAW, dAMu, dAS []float64) float64 {
	lr, maxL, sum, ls := m.logTerms(r)
	m.nllGrads(lr, sum, ls, dAW, dAMu, dAS)
	return -(maxL + math.Log(sum))
}

// nllGrads is NLLGrad's gradient half, given what logTerms returns.
func (m *Mixture) nllGrads(lr, sum float64, ls, dAW, dAMu, dAS []float64) {
	for i := range ls {
		post := ls[i] / sum // responsibility z_k
		d := (lr - m.Mu[i]) / m.S[i]
		dAW[i] += m.W[i] - post
		dAMu[i] += -post * d / m.S[i]
		dAS[i] += post * (1 - d*d)
	}
}

// survivalTerms is the probability half of SurvivalNLLGrad: it leaves
// in q and u (m's scratch) each component's Pr{R_k > v} and
// standardized log-threshold, and returns Pr{R > v} floored at
// minSurvival.
func (m *Mixture) survivalTerms(v float64) (s float64, q, u []float64) {
	lv := math.Log(v)
	q, u = m.scratch()
	for i := range q {
		u[i] = (lv - m.Mu[i]) / m.S[i]
		q[i] = 0.5 * math.Erfc(u[i]/math.Sqrt2)
		s += m.W[i] * q[i]
	}
	if s < minSurvival {
		s = minSurvival
	}
	return s, q, u
}

// SurvivalNLL returns −log Pr{R > v}, the value SurvivalNLLGrad
// returns, without its gradients.
func (m *Mixture) SurvivalNLL(v float64) float64 {
	s, _, _ := m.survivalTerms(v)
	return -math.Log(s)
}

// SurvivalNLLGrad computes −log Pr{R > v} and accumulates gradients
// w.r.t. the raw head activations (the survival term of Eq. 5).
func (m *Mixture) SurvivalNLLGrad(v float64, dAW, dAMu, dAS []float64) float64 {
	s, q, u := m.survivalTerms(v)
	for i := range q {
		phi := math.Exp(-0.5*u[i]*u[i]) / math.Sqrt(2*math.Pi)
		dAW[i] += m.W[i] - m.W[i]*q[i]/s
		dAMu[i] += -m.W[i] * phi / (s * m.S[i])
		dAS[i] += -m.W[i] * phi * u[i] / s
	}
	return -math.Log(s)
}
