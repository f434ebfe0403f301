package nn

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"testing"

	"raven/internal/stats"
)

// fitGoldenSHA is the SHA-256 of the trained weights (writeWeights)
// plus every TrainResult field of goldenFit, computed on the code that
// still had a settable guard and a second, outer gradient clip, with
// only the hash format changed: TrainResult.ClippedEpochs, 0 in this
// fit, left the hash with the outer clip. It pins "same program": a buffer that is accumulated
// into and not zeroed on reuse, a changed summation order, or a moved
// RNG draw all change these bytes. It hashes what a fit decides, not
// Checkpoint's bytes: gob describes nn.Config inside those, so dropping
// a Config field moved the old constant with no weight changed.
// Regenerate it only in a PR whose stated purpose is to change training
// numerics.
const fitGoldenSHA = "a163dd260c959084c321a4a647431f4712265e4f8e31740ab845694dd3f5ad1f"

// writeWeights feeds w what a fit decides: Version, then every
// tensor's name and weight bits in Params() order.
func writeWeights(w io.Writer, n *Net) {
	fmt.Fprintf(w, "v%d", n.Version)
	for _, p := range n.Params() {
		fmt.Fprintf(w, " %s", p.Name)
		for _, v := range p.W {
			fmt.Fprintf(w, " %x", math.Float64bits(v))
		}
	}
}

// goldenFit runs the pinned fit: GRU, survival on, guarded, three
// epochs, over data that reaches every branch of forwardBackward —
// sequences longer than MaxSeq (truncated), survival-only sequences
// (one-hit wonders) and sequences with the survival term disabled.
func goldenFit(t *testing.T, workers int) string {
	t.Helper()
	data := trainSequences(72, stats.NewRNG(5))
	for i := range data {
		switch i % 9 {
		case 3:
			data[i].Taus = nil // survival-only
		case 6:
			data[i].Survival = 0 // no open interval
		}
	}
	n := NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
	res := n.Fit(data, TrainConfig{
		MaxEpochs: 3, Patience: 3, Batch: 8, MaxSeq: 12,
		Workers: workers, Seed: 11,
	})
	h := sha256.New()
	writeWeights(h, n)
	fmt.Fprintf(h, " %d %x %x %d %d %d %t %q", res.Epochs, res.TrainNLL, res.ValNLL,
		res.Sequences, res.Terms, res.Parameters, res.Diverged, res.GuardReason)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestFitGoldenBytes(t *testing.T) {
	for _, w := range []int{1, 4} {
		if got := goldenFit(t, w); got != fitGoldenSHA {
			t.Errorf("workers=%d: fit bytes hash %s, want %s", w, got, fitGoldenSHA)
		}
	}
}
