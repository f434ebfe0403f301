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

// servedGoldenSHA is fitGoldenSHA's counterpart at the served widths
// (servedFit), computed on the code whose GRU still ran its one input
// feature through the 16×1 matVec/outerAdd kernels and whose gradients
// were one slice per tensor. The same rule holds: regenerate it only to
// change training numerics.
const servedGoldenSHA = "5528f859c77497596af0ae7595666f919e6eb6f59012fca609d6099ea4ed576e"

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

// fitHash is the hex SHA-256 of a fitted net's weights and every
// TrainResult field.
func fitHash(n *Net, res TrainResult) string {
	h := sha256.New()
	writeWeights(h, n)
	fmt.Fprintf(h, " %d %x %x %d %d %d %t %q", res.Epochs, res.TrainNLL, res.ValNLL,
		res.Sequences, res.Terms, res.Parameters, res.Diverged, res.GuardReason)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenData returns n sequences that reach every branch of
// forwardBackward: sequences longer than MaxSeq (truncated),
// survival-only sequences (one-hit wonders) and sequences with the
// survival term disabled. trainSequences draws 4 to 23 interarrivals;
// past a MaxSeq of 23 or more, every fifth sequence is drawn on to
// longer interarrivals.
func goldenData(n int, seed int64, longer int) []Sequence {
	g := stats.NewRNG(seed)
	data := trainSequences(n, g)
	for i := range data {
		switch i % 9 {
		case 3:
			data[i].Taus = nil // survival-only
		case 6:
			data[i].Survival = 0 // no open interval
		}
		if i%5 == 1 && data[i].Taus != nil {
			for len(data[i].Taus) < longer {
				data[i].Taus = append(data[i].Taus, g.Exponential(40))
			}
		}
	}
	return data
}

// goldenFit runs the pinned fit: an 8/12/4 net, survival on, guarded,
// three epochs at MaxSeq 12.
func goldenFit(t *testing.T, workers int) string {
	t.Helper()
	n := NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
	res := n.Fit(goldenData(72, 5, 0), TrainConfig{
		MaxEpochs: 3, Patience: 3, Batch: 8, MaxSeq: 12,
		Workers: workers, Seed: 11,
	})
	return fitHash(n, res)
}

// servedFit runs the pinned fit at the served net's widths (Hidden 16,
// MLPHidden 24, K 8) and training shape (MaxSeq 32, Batch 16), survival
// on, guarded, two epochs; the last minibatch of each epoch is partial.
func servedFit(t *testing.T, workers int) string {
	t.Helper()
	n := NewNet(Config{Hidden: 16, MLPHidden: 24, K: 8, TimeScale: 40, Seed: 4})
	res := n.Fit(goldenData(90, 6, 33), TrainConfig{
		MaxEpochs: 2, Patience: 2, Batch: 16, MaxSeq: 32,
		Workers: workers, Seed: 12,
	})
	return fitHash(n, res)
}

// goldenRows are the pinned fits with their hashes.
var goldenRows = []struct {
	name string
	fit  func(t *testing.T, workers int) string
	want string
}{
	{"8/12/4", goldenFit, fitGoldenSHA},
	{"served", servedFit, servedGoldenSHA},
}

func TestFitGoldenBytes(t *testing.T) {
	for _, row := range goldenRows {
		for _, w := range []int{1, 4} {
			if got := row.fit(t, w); got != row.want {
				t.Errorf("%s workers=%d: fit bytes hash %s, want %s", row.name, w, got, row.want)
			}
		}
	}
}
