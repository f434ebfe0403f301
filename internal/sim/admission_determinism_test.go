package sim

import (
	"bytes"
	"fmt"
	"testing"

	"raven/internal/cache"
	"raven/internal/core"
	"raven/internal/nn"
	"raven/internal/policy"
	"raven/internal/trace"
)

// TestAdmissionBitExact extends the determinism contract to the
// admission front-end: with the learned admission pipeline (doorkeeper
// + predicted-reuse) armed, a full replay must be byte-identical across
// repeated runs.
// The front-end keeps all of its state on the virtual clock — sketch
// counters, doorkeeper bits, the online lifetime estimate, and the
// closed-form (RNG-free) next-arrival predictions — so nothing about
// scheduling order may leak into admissions, rejections, or the trained
// weights.
func TestAdmissionBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	run := func() string {
		tr := trace.Synthetic(trace.SynthConfig{
			Objects: 2000, Requests: 8000, Interarrival: trace.Pareto,
			VariableSizes: true, Seed: 17,
		})
		p := policy.MustNew("raven", policy.Options{
			Capacity:    tr.UniqueBytes() / 8,
			TrainWindow: tr.Duration() / 4,
			Seed:        5,
			Admission:   policy.AdmissionOptions{Mode: policy.AdmitLearned},
			Raven: &core.Config{
				MaxTrainObjects: 400,
				Net:             nn.Config{Hidden: 8, MLPHidden: 12, K: 4},
				Train:           nn.TrainConfig{MaxEpochs: 4, Patience: 2},
			},
		})
		c := cache.New(tr.UniqueBytes()/8, p)
		s := ""
		c.SetEvictionObserver(func(v cache.Key, _ func([]cache.Key) []cache.Key) { s += fmt.Sprintf(" %d", v) })
		for _, req := range tr.Reqs {
			c.Handle(req)
		}
		s += fmt.Sprintf(" stats=%+v", c.StatsSnapshot())
		r, ok := cache.Unwrap(p).(*core.Raven)
		if !ok {
			t.Fatal("fronted policy did not unwrap to *core.Raven")
		}
		if n := r.Net(); n != nil {
			var buf bytes.Buffer
			if err := n.Checkpoint(&buf); err != nil {
				t.Fatalf("save net: %v", err)
			}
			s += fmt.Sprintf(" net=%x", buf.Bytes())
		} else {
			t.Fatal("raven never trained a model")
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two identical runs diverged (first 300 bytes):\n run1: %.300s\n run2: %.300s", a, b)
	}
}

// TestAdmissionOffMatchesUnfronted pins the compat guarantee: building
// a policy with the zero AdmissionOptions must replay
// bit-identically to the same policy built before the front-end
// existed — the registry wraps nothing and the engine behaves as if
// the admission API had never changed.
func TestAdmissionOffMatchesUnfronted(t *testing.T) {
	newTrace := func() *trace.Trace {
		return trace.Synthetic(trace.SynthConfig{
			Objects: 300, Requests: 12000, Interarrival: trace.Pareto,
			VariableSizes: true, Seed: 9,
		})
	}
	tr := newTrace()
	capacity := tr.UniqueBytes() / 8
	opts := Options{Capacity: capacity, Seed: 3}

	base := runOne(t, newTrace(),
		policy.MustNew("lhr-adm", policy.Options{Capacity: capacity, Seed: 7}), opts)
	off := runOne(t, newTrace(),
		policy.MustNew("lhr-adm", policy.Options{
			Capacity: capacity, Seed: 7,
			Admission: policy.AdmissionOptions{Mode: policy.AdmitOff},
		}), opts)
	if canonicalResult(base) != canonicalResult(off) {
		t.Errorf("admission off is not bit-identical to unfronted build:\n base: %s\n off:  %s",
			canonicalResult(base), canonicalResult(off))
	}
}
