package nn

import "math"

// Frozen32 is an immutable float32 snapshot of the network's MLP and
// head weights, built by Net.Freeze32 after training completes and
// used only for inference. The recurrent embedding stays float64 —
// embeddings are computed incrementally across an object's lifetime,
// so quantizing them would accumulate error step by step, while the
// stateless MLP forward pass pays the f32 rounding exactly once per
// prediction. Version carries the source network's version so callers
// can detect a stale freeze after a model swap.
type Frozen32 struct {
	Version int

	hidden, mlp, k int
	timeScale      float64

	fc1W, fc1B []float32
	fc2W, fc2B []float32
	wW, wB     []float32
	muW, muB   []float32
	sW, sB     []float32
}

// Freeze32 quantizes the current MLP and head weights to float32 and
// returns the frozen inference model. The result is cached on the
// network and re-used until Version changes, so calling it once per
// prediction is cheap; only the first call after a completed Fit pays
// the copy.
func (n *Net) Freeze32() *Frozen32 {
	if n.frozen32 != nil && n.frozen32.Version == n.Version {
		return n.frozen32
	}
	// Built once per model swap and cached on the Net; every later call returns it.
	fz := &Frozen32{
		Version:   n.Version,
		hidden:    n.Cfg.Hidden,
		mlp:       n.Cfg.MLPHidden,
		k:         n.Cfg.K,
		timeScale: n.Cfg.TimeScale,
		fc1W:      quantize32(n.fc1.W.W),
		fc1B:      quantize32(n.fc1.B.W),
		fc2W:      quantize32(n.fc2.W.W),
		fc2B:      quantize32(n.fc2.B.W),
		wW:        quantize32(n.headW.W.W),
		wB:        quantize32(n.headW.B.W),
		muW:       quantize32(n.headMu.W.W),
		muB:       quantize32(n.headMu.B.W),
		sW:        quantize32(n.headS.W.W),
		sB:        quantize32(n.headS.B.W),
	}
	n.frozen32 = fz
	return fz
}

// Scratch32 holds the reusable activation buffers of one Frozen32
// prediction stream; create one per caller with NewScratch.
type Scratch32 struct {
	in, y1, y2  []float32
	aW, aMu, aS []float32
}

// NewScratch allocates prediction buffers sized for this frozen model.
func (fz *Frozen32) NewScratch() *Scratch32 {
	return &Scratch32{
		in: make([]float32, fz.hidden+2), y1: make([]float32, fz.mlp), y2: make([]float32, fz.mlp),
		aW: make([]float32, fz.k), aMu: make([]float32, fz.k), aS: make([]float32, fz.k),
	}
}

// PredictBatch fills out[i] with the residual-time mixture for in[i]
// through the f32 kernels, one input at a time through one shared
// scratch arena, allocation-free after the first mixture fill. The
// input features are computed in f64 (same log1p transforms as the f64
// path) and rounded once at the MLP boundary. Serial by design: the
// fused eviction path batches all dirty candidates through one call so
// the layer weights are walked with hot caches instead of being
// re-fetched per candidate.
func (fz *Frozen32) PredictBatch(s *Scratch32, in []PredictInput, out []Mixture) {
	for i := range in {
		for j := 0; j < fz.hidden; j++ {
			s.in[j] = float32(in[i].H[j])
		}
		s.in[fz.hidden] = float32(featSize(in[i].Size))
		age := in[i].Age
		if age < 0 {
			age = 0
		}
		s.in[fz.hidden+1] = float32(math.Log1p(age / fz.timeScale))
		matVec32(fz.fc1W, fz.mlp, fz.hidden+2, s.in, fz.fc1B, s.y1)
		relu32(s.y1, s.y1)
		matVec32(fz.fc2W, fz.mlp, fz.mlp, s.y1, fz.fc2B, s.y2)
		relu32(s.y2, s.y2)
		matVec32(fz.wW, fz.k, fz.mlp, s.y2, fz.wB, s.aW)
		matVec32(fz.muW, fz.k, fz.mlp, s.y2, fz.muB, s.aMu)
		matVec32(fz.sW, fz.k, fz.mlp, s.y2, fz.sB, s.aS)
		MixtureFromActivations32(s.aW, s.aMu, s.aS, &out[i])
	}
}

// MixtureFromActivations32 converts f32 head activations into mixture
// parameters, mirroring MixtureFromActivations: softmax over aW (with
// max subtraction), means copied, log-stddevs clamped to ±7 then
// exponentiated. The arithmetic widens to f64 at the transcendental
// calls and the output is the policy's usual f64 Mixture, so every
// consumer (sampling, CDF, finiteness gates) works unchanged.
func MixtureFromActivations32(aW, aMu, aS []float32, out *Mixture) {
	k := len(aW)
	if out.W == nil {
		// First fill of a reused Mixture; callers keep mixtures in scratch arenas, so the steady state never re-allocates.
		out.W = make([]float64, k)
		out.Mu = make([]float64, k)
		out.S = make([]float64, k)
	}
	maxA := float32(math.Inf(-1))
	for _, a := range aW {
		if a > maxA {
			maxA = a
		}
	}
	sum := 0.0
	for i, a := range aW {
		out.W[i] = math.Exp(float64(a - maxA))
		sum += out.W[i]
	}
	for i := range out.W {
		out.W[i] /= sum
	}
	for i, a := range aMu {
		out.Mu[i] = float64(a)
	}
	for i, a := range aS {
		v := float64(a)
		if v < logSClampLo {
			v = logSClampLo
		}
		if v > logSClampHi {
			v = logSClampHi
		}
		out.S[i] = math.Exp(v)
	}
}
