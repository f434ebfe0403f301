package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"raven/internal/stats"
)

func guardNet() *Net {
	return NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
}

func guardTrainConfig() TrainConfig {
	return TrainConfig{MaxEpochs: 4, Patience: 2, Batch: 8, Seed: 11}
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
			cfg := guardTrainConfig()
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

// trainedState is what a Fit starts from and leaves behind: the weights
// (as a checkpoint writes them), the master gradient and Adam's moments.
func trainedState(t *testing.T, n *Net) []byte {
	t.Helper()
	b := netBytes(t, n)
	for _, v := range [][]float64{n.all.G, n.all.m, n.all.v} {
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// TestDivergedFitLeavesNoTrace: a guard-tripped Fit leaves the network
// as it found it — weights, gradient and Adam moments — so the next,
// clean Fit on it is the clean Fit of a twin that never saw the tripped
// one, byte for byte in its state and its TrainResult. Both nets are
// warm (one clean fit each) so that their moments are not zero.
func TestDivergedFitLeavesNoTrace(t *testing.T) {
	for _, f := range []TrainFaults{{NaNLossEpoch: 1}, {NaNGradEpoch: 1}, {BlowupEpoch: 2}} {
		cfg := guardTrainConfig()
		warm := trainSequences(60, stats.NewRNG(5))
		data := trainSequences(60, stats.NewRNG(6))
		n, twin := guardNet(), guardNet()
		n.Fit(warm, cfg)
		twin.Fit(warm, cfg)
		faulted := cfg
		faulted.Faults = &f
		if res := n.Fit(data, faulted); !res.Diverged {
			t.Fatalf("faults=%+v: the fault did not trip the guard: %+v", f, res)
		}
		if !bytes.Equal(trainedState(t, n), trainedState(t, twin)) {
			t.Errorf("faults=%+v: the tripped fit left weights, gradient or moments changed", f)
		}
		cfg.Seed++
		got, want := n.Fit(data, cfg), twin.Fit(data, cfg)
		if got != want {
			t.Errorf("faults=%+v: the clean fit after a tripped one\n got %+v\nwant %+v", f, got, want)
		}
		if !bytes.Equal(trainedState(t, n), trainedState(t, twin)) {
			t.Errorf("faults=%+v: the clean fit after a tripped one trained other weights than its twin", f)
		}
	}
}

// TestGuardedFitWorkersBitExact extends TestFitWorkersBitExact to
// guarded training: with the guard active, and with a fault tripping
// it, a second inline fit and the same fit on the trainer's worker
// thread give the first fit's TrainResult and weight bytes.
func TestGuardedFitWorkersBitExact(t *testing.T) {
	tr := NewTrainer()
	defer tr.Close()
	for _, faults := range []*TrainFaults{nil, {NaNLossEpoch: 2}, {NaNGradEpoch: 2}, {BlowupEpoch: 2}} {
		run := func(tr *Trainer) (TrainResult, []byte) {
			cfg := guardTrainConfig()
			cfg.Faults = faults
			return fitBytes(t, tr, guardNet(), trainSequences(60, stats.NewRNG(5)), cfg)
		}
		baseRes, baseW := run(nil)
		for _, where := range []struct {
			name string
			tr   *Trainer
		}{{"inline", nil}, {"trainer", tr}} {
			res, wb := run(where.tr)
			if res != baseRes {
				t.Errorf("faults=%+v %s: TrainResult diverged:\n first: %+v\n   got: %+v",
					faults, where.name, baseRes, res)
			}
			if !bytes.Equal(wb, baseW) {
				t.Errorf("faults=%+v %s: produced different weight bytes than the first inline fit", faults, where.name)
			}
		}
	}
}

// TestZeroConfigFitIsGuarded: the guard has no off switch. A fit with
// a zero-value TrainConfig whose loss turns NaN still reports Diverged
// and restores the pre-fit weights.
func TestZeroConfigFitIsGuarded(t *testing.T) {
	n := guardNet()
	before := netBytes(t, n)
	res := n.Fit(trainSequences(60, stats.NewRNG(5)), TrainConfig{Faults: &TrainFaults{NaNLossEpoch: 1}})
	if !res.Diverged {
		t.Fatalf("a zero-value TrainConfig trained unguarded: %+v", res)
	}
	if !bytes.Equal(netBytes(t, n), before) {
		t.Error("the zero-value fit did not restore the pre-fit weights")
	}
}

// TestGuardLossBlowupTrips checks the blow-up detector (rather than
// the finite check) catches a finite loss explosion: the scaled loss
// and gradients stay finite, and Adam's clip keeps the weights finite.
func TestGuardLossBlowupTrips(t *testing.T) {
	n := guardNet()
	before := netBytes(t, n)
	cfg := guardTrainConfig()
	cfg.MaxEpochs = 8
	cfg.Faults = &TrainFaults{BlowupEpoch: 2, BlowupScale: 1e6}
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
// the response is Adam's clipping, not rollback.
func TestGuardBlowupEpochOneClipsOnly(t *testing.T) {
	n := guardNet()
	cfg := guardTrainConfig()
	cfg.Faults = &TrainFaults{BlowupEpoch: 1}
	res := n.Fit(trainSequences(60, stats.NewRNG(5)), cfg)
	if res.Diverged {
		t.Fatalf("finite gradient scaling must not diverge: %+v", res)
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
