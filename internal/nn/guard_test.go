package nn

import (
	"bytes"
	"math"
	"testing"

	"raven/internal/stats"
)

func guardNet() *Net {
	return NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
}

func guardTrainConfig(workers int) TrainConfig {
	return TrainConfig{
		MaxEpochs: 4, Patience: 2, Batch: 8, Survival: true,
		Workers: workers, Seed: 11, Guard: DefaultGuard(),
	}
}

// TestGuardTripRestoresPreFitWeights is the satellite quick-check: a
// guard-tripped Fit must leave the weights bit-identical to the
// pre-fit snapshot, Version unchanged.
func TestGuardTripRestoresPreFitWeights(t *testing.T) {
	faults := []struct {
		name string
		f    TrainFaults
	}{
		{"nan loss epoch 1", TrainFaults{NaNLossEpoch: 1}},
		{"nan loss epoch 3", TrainFaults{NaNLossEpoch: 3}},
		{"nan gradient epoch 1", TrainFaults{NaNGradEpoch: 1}},
		{"nan gradient epoch 2", TrainFaults{NaNGradEpoch: 2}},
		{"loss blowup epoch 2", TrainFaults{BlowupEpoch: 2}},
	}
	for _, tc := range faults {
		t.Run(tc.name, func(t *testing.T) {
			n := guardNet()
			before := netBytes(t, n)
			verBefore := n.Version
			cfg := guardTrainConfig(2)
			cfg.Faults = &tc.f
			res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
			if !res.Diverged {
				t.Fatalf("fault %q did not trip the guard: %+v", tc.name, res)
			}
			if res.GuardReason == "" {
				t.Error("diverged result carries no GuardReason")
			}
			if n.Version != verBefore {
				t.Errorf("diverged Fit bumped Version %d -> %d", verBefore, n.Version)
			}
			if !bytes.Equal(netBytes(t, n), before) {
				t.Error("guard-tripped Fit did not restore pre-fit weights bit-identically")
			}
			if !n.FiniteWeights() {
				t.Error("weights non-finite after rollback")
			}
		})
	}
}

// TestGuardedFitWorkersBitExact extends the PR 2 determinism contract
// to guarded training: with the guard active (and with a fault
// tripping it), every worker count must produce identical results.
func TestGuardedFitWorkersBitExact(t *testing.T) {
	for _, faults := range []*TrainFaults{nil, {NaNLossEpoch: 2}, {NaNGradEpoch: 2}, {BlowupEpoch: 2}} {
		run := func(workers int) (TrainResult, []byte) {
			n := guardNet()
			cfg := guardTrainConfig(workers)
			cfg.Faults = faults
			res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
			return res, netBytes(t, n)
		}
		baseRes, baseW := run(1)
		for _, w := range []int{2, 4, 7} {
			res, wb := run(w)
			if res != baseRes {
				t.Errorf("faults=%+v workers=%d TrainResult diverged:\n serial: %+v\n workers: %+v",
					faults, w, baseRes, res)
			}
			if !bytes.Equal(wb, baseW) {
				t.Errorf("faults=%+v workers=%d produced different weight bytes than serial", faults, w)
			}
		}
	}
}

// TestGuardCleanTrainingMatchesUnguarded pins that a guard which
// never trips (generous thresholds, no faults) does not perturb
// training: results are bit-identical with and without it.
func TestGuardCleanTrainingMatchesUnguarded(t *testing.T) {
	run := func(guard GuardConfig) (TrainResult, []byte) {
		n := guardNet()
		cfg := guardTrainConfig(2)
		cfg.Guard = guard
		res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
		// Zero the guard-only fields so the structs compare equal.
		res.ClippedEpochs = 0
		return res, netBytes(t, n)
	}
	gRes, gW := run(DefaultGuard())
	uRes, uW := run(GuardConfig{})
	if gRes != uRes {
		t.Errorf("guarded result %+v != unguarded %+v", gRes, uRes)
	}
	if !bytes.Equal(gW, uW) {
		t.Error("guard with generous thresholds changed the trained weights")
	}
}

// TestGuardClipCountsEpochs: a tiny clip threshold fires every epoch
// without tripping divergence.
func TestGuardClipCountsEpochs(t *testing.T) {
	n := guardNet()
	cfg := guardTrainConfig(2)
	cfg.Guard = GuardConfig{ClipNorm: 1e-6, CheckFinite: true}
	res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
	if res.Diverged {
		t.Fatalf("clipping alone must not diverge: %+v", res)
	}
	if res.ClippedEpochs != res.Epochs {
		t.Errorf("ClipNorm=1e-6 clipped %d of %d epochs; want all", res.ClippedEpochs, res.Epochs)
	}
	if !n.FiniteWeights() {
		t.Error("weights non-finite after clipped training")
	}
}

// TestGuardLossBlowupTrips checks the blow-up detector (rather than
// the finite check) catches a finite loss explosion: the guard has no
// finite checks and no clip here, only the blow-up threshold.
func TestGuardLossBlowupTrips(t *testing.T) {
	n := guardNet()
	before := netBytes(t, n)
	cfg := guardTrainConfig(1)
	cfg.MaxEpochs = 8
	cfg.Faults = &TrainFaults{BlowupEpoch: 2, BlowupScale: 1e6}
	cfg.Guard = GuardConfig{MaxLossBlowup: 2}
	res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
	if !res.Diverged {
		t.Fatalf("loss blow-up did not trip: %+v", res)
	}
	if res.GuardReason != "training loss blow-up" {
		t.Errorf("GuardReason = %q, want the blow-up detector", res.GuardReason)
	}
	if !bytes.Equal(netBytes(t, n), before) {
		t.Error("blow-up rollback did not restore pre-fit weights")
	}
}

// TestGuardBlowupEpochOneClipsOnly pins a deliberate property: a
// finite gradient blow-up starting at epoch 1 cannot diverge training
// (Adam's global norm clip rescales any finite gradient, and with no
// sane first epoch there is no baseline for the blow-up detector), so
// the guard's observable response is clipping, not rollback.
func TestGuardBlowupEpochOneClipsOnly(t *testing.T) {
	n := guardNet()
	cfg := guardTrainConfig(2)
	cfg.Faults = &TrainFaults{BlowupEpoch: 1}
	res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
	if res.Diverged {
		t.Fatalf("finite gradient scaling must not diverge under DefaultGuard: %+v", res)
	}
	if res.ClippedEpochs == 0 {
		t.Error("blown-up gradients were never clipped")
	}
	if !n.FiniteWeights() {
		t.Error("weights non-finite after clipped blow-up training")
	}
}

// TestFiniteWeights covers the helper the lifecycle layer leans on.
func TestFiniteWeights(t *testing.T) {
	n := guardNet()
	if !n.FiniteWeights() {
		t.Fatal("fresh net reports non-finite weights")
	}
	n.params[2].W[1] = math.NaN()
	if n.FiniteWeights() {
		t.Fatal("NaN weight not detected")
	}
	n.params[2].W[1] = math.Inf(-1)
	if n.FiniteWeights() {
		t.Fatal("-Inf weight not detected")
	}
}
