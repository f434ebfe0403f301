package sketch

import (
	"testing"

	"raven/internal/stats"
)

// Edge cases of the counting substrate the admission front-end leans
// on: construction validation, counter saturation vs. the aging clock,
// the OnAge lockstep hook, and the doorkeeper's false-positive bound.

func TestCountMinRejectsBadDimensions(t *testing.T) {
	for _, dims := range [][2]int{{0, 64}, {4, 0}, {-1, 64}, {4, -8}, {0, 0}} {
		rows, width := dims[0], dims[1]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCountMin(%d, %d) did not panic", rows, width)
				}
			}()
			NewCountMin(rows, width, 0)
		}()
	}
}

// TestCountMinSaturationAdvancesAging is the regression test for the
// aging seam: a saturated increment (all of the key's counters at
// maxCount) cannot raise a counter, but it must still advance the
// aging clock. The old early return froze aging exactly when the
// sketch filled up, so stale popularity persisted for the rest of a
// long replay.
func TestCountMinSaturationAdvancesAging(t *testing.T) {
	cm := NewCountMin(2, 64, 0)
	const hot = uint64(42)
	for i := 0; i < 2*maxCount; i++ {
		cm.Add(hot)
	}
	if got := cm.Estimate(hot); got != maxCount {
		t.Fatalf("estimate %d, want saturation at %d", got, maxCount)
	}
	if got := cm.Adds(); got != 2*maxCount {
		t.Errorf("saturated adds stopped the aging clock: adds=%d, want %d", got, 2*maxCount)
	}

	// With aging armed, the saturated stream alone must trigger the
	// halving.
	cm2 := NewCountMin(2, 64, 30)
	aged := 0
	cm2.OnAge = func() { aged++ }
	for i := 0; i < 60; i++ {
		cm2.Add(hot)
	}
	if aged != 2 {
		t.Errorf("aged %d times over 60 saturated adds with ResetAt=30, want 2", aged)
	}
	if got := cm2.Estimate(hot); got >= maxCount {
		t.Errorf("estimate %d still saturated after halvings", got)
	}
}

func TestCountMinHalveRunsOnAge(t *testing.T) {
	cm := NewCountMin(4, 128, 0)
	ran := false
	cm.OnAge = func() { ran = true }
	cm.Add(7)
	cm.Add(7)
	cm.Halve()
	if !ran {
		t.Error("Halve did not run OnAge")
	}
	if got := cm.Estimate(7); got != 1 {
		t.Errorf("estimate after halving = %d, want 1", got)
	}
	if cm.Adds() != 0 {
		t.Errorf("adds not reset by Halve: %d", cm.Adds())
	}
}

// TestBloomFalsePositiveBound checks the doorkeeper's design point: at
// its rated capacity the false-positive rate stays in the low single
// digits (sized for ~1%, asserted at <3% to keep the test stable).
func TestBloomFalsePositiveBound(t *testing.T) {
	const n = 4096
	b := NewBloom(n)
	for k := uint64(0); k < n-1; k++ { // stay below cap: no self-reset
		b.AddIfMissing(k)
	}
	fp := 0
	const probes = 20000
	for k := uint64(1 << 32); k < 1<<32+probes; k++ {
		if b.Contains(k) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Errorf("false-positive rate %.4f at capacity, want < 0.03", rate)
	}
}

// TestCountMinPackedCountersMatchReference checks the four-bit packing:
// with one row, conservative update is a plain saturating increment, so
// every counter of a sixteen-counter word must track its own reference
// count through increments and halvings, with no carry into or borrow
// from its neighbours.
func TestCountMinPackedCountersMatchReference(t *testing.T) {
	cm := NewCountMin(1, 16, 0)
	var ref [16]uint32
	g := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		k := uint64(g.Intn(64))
		if i%97 == 0 {
			cm.Halve()
			for c := range ref {
				ref[c] >>= 1
			}
		}
		cm.Add(k)
		_, s := cm.slot(0, k)
		c := s / 4
		ref[c] = min(ref[c]+1, maxCount)
		for key := uint64(0); key < 64; key++ {
			_, s := cm.slot(0, key)
			if got := cm.Estimate(key); got != ref[s/4] {
				t.Fatalf("step %d: key %d (counter %d) estimates %d, reference %d", i, key, s/4, got, ref[s/4])
			}
		}
	}
}

// TestTablesTakeTheirExactSize pins what range reduction buys: a table
// sized for n entries holds n entries' worth of bits, rounded up to a
// whole word, not up to the next power of two.
func TestTablesTakeTheirExactSize(t *testing.T) {
	for _, n := range []int{64, 1000, 4097, 391978} {
		if got, want := NewBloom(n).Bytes(), 8*((n*bloomBitsPerEntry+63)/64); got != want {
			t.Errorf("NewBloom(%d) holds %d bytes, want %d", n, got, want)
		}
		if got, want := NewCountMin(4, n, 0).Bytes(), 4*8*((n+15)/16); got != want {
			t.Errorf("NewCountMin(4, %d) holds %d bytes, want %d", n, got, want)
		}
	}
}

// TestBloomResizeIsAReset: a resized filter is empty, sized for its new
// capacity, and its reset count moves, so a caller that read Resets
// before an AddIfMissing knows the key is gone.
func TestBloomResizeIsAReset(t *testing.T) {
	b := NewBloom(100)
	b.AddIfMissing(7)
	gen := b.Resets()
	b.Resize(5000)
	if b.Resets() != gen+1 {
		t.Errorf("Resets %d after Resize, want %d", b.Resets(), gen+1)
	}
	if b.Contains(7) {
		t.Error("key survived Resize")
	}
	if got, want := b.Bytes(), NewBloom(5000).Bytes(); got != want {
		t.Errorf("resized filter holds %d bytes, want %d", got, want)
	}
	for k := uint64(0); k < 4999; k++ {
		b.AddIfMissing(k)
	}
	if b.Resets() != gen+1 {
		t.Error("resized filter reset before its new capacity")
	}
}

// Adds returns how many increments the current aging period has
// absorbed.
func (cm *CountMin) Adds() uint64 { return cm.adds }
