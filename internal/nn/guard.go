package nn

// Every Fit runs under the training guard (§6.1.1 deployment
// hardening): a learned eviction policy that silently diverges is worse
// than no policy at all, so the guard trips before insane weights can
// be committed. It trips on a non-finite minibatch loss or reduced
// gradient, a non-finite weight at an epoch boundary, or an epoch whose
// mean training NLL exceeds the best epoch so far by more than
// maxLossBlowup*(|best|+1) (NLLs can be negative, so the threshold is
// measured on that shifted scale rather than as a raw ratio). A tripped
// Fit restores the exact pre-fit weights, leaves Version unchanged, and
// reports Diverged in TrainResult.
//
// Every check runs at a point that is serial for every Workers value
// (the shard reduction and the epoch boundary), so the guard preserves
// Fit's bit-determinism. Gradient clipping is Adam's alone (Adam.Clip).
const maxLossBlowup = 50

// TrainFaults injects deterministic faults into Fit for testing the
// guard and every degradation path behind it. Faults are applied at
// the serial reduction point of each minibatch — after the per-shard
// gradients have been folded into the master in sequence order — so
// an injected fault produces bit-identical outcomes for any Workers
// value. Epochs are 1-based; a zero epoch disables that fault.
type TrainFaults struct {
	// NaNLossEpoch, from that epoch on, replaces every minibatch's
	// reduced loss with NaN (tripping the finite check).
	NaNLossEpoch int
	// NaNGradEpoch, from that epoch on, poisons the first element of
	// the reduced gradient with NaN (tripping the finite check before
	// the optimizer can spread it into the weights).
	NaNGradEpoch int
	// BlowupEpoch, from that epoch on, scales every reduced minibatch
	// gradient AND its loss by BlowupScale (default 1e12). The loss
	// scaling mimics the signature of genuine divergence (tripping the
	// blow-up check). A finite gradient scale alone cannot diverge
	// training: Adam's global norm clip rescales any finite gradient
	// back to a bounded step.
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

// FiniteWeights reports whether every weight of the network is finite.
// Raven checks this before warm-starting a new training window: a net
// poisoned by a corrupt checkpoint or runtime overflow cannot be
// trained out of NaN, only replaced.
func (n *Net) FiniteWeights() bool { return finite(n.all.W) }

// finiteGrads reports whether every master gradient is finite.
func (n *Net) finiteGrads() bool { return finite(n.all.G) }
