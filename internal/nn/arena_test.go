package nn

import (
	"bytes"
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
	// A later serial Fit on the same net reuses the scratch the first
	// one left (fitScratch): it allocates only its few closures.
	repeatAllocs := func(sequences, epochs int) float64 {
		data := trainSequences(sequences, stats.NewRNG(5))
		cfg := TrainConfig{MaxEpochs: epochs, Patience: epochs, MaxSeq: 12, Seed: 9}
		n := NewNet(Config{TimeScale: 40, Seed: 3})
		n.Fit(data, cfg)
		return testing.AllocsPerRun(2, func() { n.Fit(data, cfg) })
	}
	// The counts are exact in the code; the slack of 2 absorbs a stray
	// runtime malloc, and is below what one allocation per extra epoch
	// (+3) or per extra minibatch (+22) would add.
	shapes := []struct{ sequences, epochs int }{{512, 1}, {64, 4}, {512, 4}}
	base := fitAllocs(64, 1)
	for _, c := range shapes {
		if got := fitAllocs(c.sequences, c.epochs); math.Abs(got-base) > 2 {
			t.Errorf("Fit over %d sequences × %d epochs allocates %v, over 64 × 1 %v: want equal",
				c.sequences, c.epochs, got, base)
		}
	}
	const maxRepeat = 8
	repeat := repeatAllocs(64, 1)
	if repeat > maxRepeat {
		t.Errorf("a repeat Fit over 64 sequences × 1 epoch allocates %v, want <= %d", repeat, maxRepeat)
	}
	for _, c := range shapes {
		if got := repeatAllocs(c.sequences, c.epochs); math.Abs(got-repeat) > 2 {
			t.Errorf("a repeat Fit over %d sequences × %d epochs allocates %v, over 64 × 1 %v: want equal",
				c.sequences, c.epochs, got, repeat)
		}
	}
	t.Logf("Fit allocates %v times on a fresh net, %v on its next fit", base, repeat)
}

// TestFitScratchCarriesNothing: a Fit on a net that kept the scratch of
// an earlier fit gives what it gives on a net whose scratch is dropped
// first — byte for byte in weights, gradient, moments and TrainResult —
// whichever of the two fits is larger or has the longer sequences.
func TestFitScratchCarriesNothing(t *testing.T) {
	big := trainSequences(90, stats.NewRNG(5))
	small := trainSequences(30, stats.NewRNG(7))
	for i := range small {
		small[i].Taus = append(small[i].Taus, small[i].Taus...) // longer than big's
	}
	for _, d := range []struct {
		name string
		a, b []Sequence
	}{{"big then small", big, small}, {"small then big", small, big}} {
		ca := TrainConfig{MaxEpochs: 3, Patience: 3, Batch: 8, Seed: 11}
		cb := TrainConfig{MaxEpochs: 3, Patience: 3, Batch: 6, Seed: 12}
		kept, dropped := guardNet(), guardNet()
		kept.Fit(d.a, ca)
		dropped.Fit(d.a, ca)
		dropped.fit = nil
		got, want := kept.Fit(d.b, cb), dropped.Fit(d.b, cb)
		if got != want {
			t.Errorf("%s: kept scratch\n got %+v\nwant %+v", d.name, got, want)
		}
		if !bytes.Equal(trainedState(t, kept), trainedState(t, dropped)) {
			t.Errorf("%s: the net that kept its scratch trained other weights", d.name)
		}
	}
}
