package nn

import (
	"math"
	"runtime/debug"
	"testing"

	"raven/internal/stats"
)

// TestFitAllocFree pins the training arena: once an arena has held its
// longest sequence, forwardBackward allocates nothing, and what a whole
// Fit allocates is set by the replica and worker counts and the longest
// sequence, not by how many sequences or epochs it runs.
func TestFitAllocFree(t *testing.T) {
	// A collection inside a measured window adds the runtime's own
	// allocations (the process's first one starts the mark workers) to
	// the count, so the collector stays off while this test counts.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tc := TrainConfig{MaxSeq: 12}
	long := trainSequences(1, stats.NewRNG(1))[0]
	for len(long.Taus) < tc.MaxSeq+3 { // longer than MaxSeq: truncated to the cap
		long.Taus = append(long.Taus, 25)
	}
	survOnly := Sequence{Size: 900, Survival: 70}
	n := NewNet(Config{TimeScale: 40, Seed: 3}).Shadow()
	a := new(trainArena)
	g := stats.NewRNG(9)
	for _, train := range []bool{true, false} {
		n.forwardBackward(a, &long, g, tc, train) // warm-up grows the arena
		if allocs := testing.AllocsPerRun(50, func() {
			n.forwardBackward(a, &long, g, tc, train)
			n.forwardBackward(a, &survOnly, g, tc, train)
		}); allocs != 0 {
			t.Errorf("forwardBackward(train=%t) allocates %v/op after warm-up, want 0", train, allocs)
		}
	}

	fitAllocs := func(sequences, epochs int) float64 {
		data := trainSequences(sequences, stats.NewRNG(5))
		cfg := TrainConfig{MaxEpochs: epochs, Patience: epochs, MaxSeq: 12, Seed: 9}
		return testing.AllocsPerRun(2, func() {
			NewNet(Config{TimeScale: 40, Seed: 3}).Fit(data, cfg)
		})
	}
	// The counts are exact in the code; the slack of 2 absorbs a stray
	// runtime malloc, and is below what one allocation per extra epoch
	// (+3) or per extra minibatch (+22) would add.
	base := fitAllocs(64, 1)
	for _, c := range []struct{ sequences, epochs int }{{512, 1}, {64, 4}, {512, 4}} {
		if got := fitAllocs(c.sequences, c.epochs); math.Abs(got-base) > 2 {
			t.Errorf("Fit over %d sequences × %d epochs allocates %v, over 64 × 1 %v: want equal",
				c.sequences, c.epochs, got, base)
		}
	}
}
