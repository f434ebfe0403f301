package nn

import "math"

// GuardConfig is Fit's training guard (§6.1.1 deployment hardening):
// a learned eviction policy that silently diverges is worse than no
// policy at all, so the guard watches every serial reduction point of
// the data-parallel loop and trips before insane weights can be
// committed. A tripped Fit restores the exact pre-fit weights (bit
// identical), leaves Version unchanged, and reports Diverged in
// TrainResult so the caller can roll back and degrade.
//
// All checks run at points that are serial for every Workers value
// (the shard reduction and the epoch boundary), so enabling the guard
// preserves the bit-determinism invariant of Fit.
//
// The zero value disables every check.
type GuardConfig struct {
	// MaxLossBlowup trips the guard when an epoch's mean training NLL
	// exceeds the best epoch seen so far by more than
	// MaxLossBlowup*(|best|+1). NLLs can be negative, so the threshold
	// is measured on that shifted scale rather than a raw ratio.
	// <= 0 disables the check.
	MaxLossBlowup float64
	// ClipNorm rescales any minibatch's reduced global gradient (the
	// already term-normalized gradient Adam would consume) whose L2
	// norm exceeds it. Epochs in which at least one clip fired are
	// counted in TrainResult.ClippedEpochs. <= 0 disables.
	ClipNorm float64
	// CheckFinite trips the guard on any non-finite minibatch loss,
	// non-finite reduced gradient, or non-finite weight at an epoch
	// boundary.
	CheckFinite bool
}

// enabled reports whether any guard check is active.
func (g GuardConfig) enabled() bool {
	return g.CheckFinite || g.MaxLossBlowup > 0 || g.ClipNorm > 0
}

// DefaultGuard is the guard the cache policy trains under: finite
// checks on, a generous blow-up threshold that real workloads never
// cross, and an outer clip far above Adam's own per-step clip so it
// only fires on genuinely pathological gradients.
func DefaultGuard() GuardConfig {
	return GuardConfig{MaxLossBlowup: 50, ClipNorm: 100, CheckFinite: true}
}

// TrainFaults injects deterministic faults into Fit for testing the
// guard and every degradation path behind it. Faults are applied at
// the serial reduction point of each minibatch — after the per-shard
// gradients have been folded into the master in sequence order — so
// an injected fault produces bit-identical outcomes for any Workers
// value. Epochs are 1-based; a zero epoch disables that fault.
type TrainFaults struct {
	// NaNLossEpoch, from that epoch on, replaces every minibatch's
	// reduced loss with NaN (tripping a CheckFinite guard).
	NaNLossEpoch int
	// NaNGradEpoch, from that epoch on, poisons the first element of
	// the reduced gradient with NaN (tripping a CheckFinite guard
	// before the optimizer can spread it into the weights).
	NaNGradEpoch int
	// BlowupEpoch, from that epoch on, scales every reduced minibatch
	// gradient AND its loss by BlowupScale (default 1e12). The loss
	// scaling mimics the signature of genuine divergence (tripping a
	// MaxLossBlowup guard); the gradient scaling exercises the
	// ClipNorm path. Note a finite gradient scale alone cannot
	// diverge training here: Adam's global norm clip rescales any
	// finite gradient back to a bounded step.
	BlowupEpoch int
	// BlowupScale overrides the blow-up scale factor (0 = 1e12).
	BlowupScale float64
}

func (f *TrainFaults) scale() float64 {
	if f.BlowupScale > 0 {
		return f.BlowupScale
	}
	return 1e12
}

// gradFault returns the factor to scale the reduced minibatch
// gradient and loss by in the given 1-based epoch, and whether the
// fault is active.
func (f *TrainFaults) gradFault(epoch int) (float64, bool) {
	if f != nil && f.BlowupEpoch > 0 && epoch >= f.BlowupEpoch {
		return f.scale(), true
	}
	return 1, false
}

// lossFault reports whether the reduced minibatch loss is replaced
// with NaN in the given 1-based epoch.
func (f *TrainFaults) lossFault(epoch int) bool {
	return f != nil && f.NaNLossEpoch > 0 && epoch >= f.NaNLossEpoch
}

// nanGradFault reports whether the reduced minibatch gradient is
// NaN-poisoned in the given 1-based epoch.
func (f *TrainFaults) nanGradFault(epoch int) bool {
	return f != nil && f.NaNGradEpoch > 0 && epoch >= f.NaNGradEpoch
}

// finiteSlice reports whether every element of s is finite.
func finiteSlice(s []float64) bool {
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FiniteWeights reports whether every weight of the network is finite.
// Raven checks this before warm-starting a new training window: a net
// poisoned by a corrupt checkpoint or runtime overflow cannot be
// trained out of NaN, only replaced.
func (n *Net) FiniteWeights() bool {
	for _, p := range n.params {
		if !finiteSlice(p.W) {
			return false
		}
	}
	return true
}

// gradNorm returns the L2 norm of the master gradients scaled by
// invScale (the same scaling Adam's step will apply).
func (n *Net) gradNorm(invScale float64) float64 {
	norm := 0.0
	for _, p := range n.params {
		for _, g := range p.G {
			gg := g * invScale
			norm += gg * gg
		}
	}
	return math.Sqrt(norm)
}

// finiteGrads reports whether every master gradient is finite.
func (n *Net) finiteGrads() bool {
	for _, p := range n.params {
		if !finiteSlice(p.G) {
			return false
		}
	}
	return true
}
