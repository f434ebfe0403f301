package nn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"raven/internal/stats"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 3, 4, 16} {
		for _, n := range []int{0, 1, 7, 64} {
			visits := make([]int, n)
			var mu sync.Mutex
			NewPool(w).ParallelFor(n, func(worker, i int) {
				mu.Lock()
				visits[i]++
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Errorf("workers=%d n=%d: index %d visited %d times", w, n, i, v)
				}
			}
		}
	}
}

func TestParallelForChunksAreWorkerPrivate(t *testing.T) {
	// Each index must be claimed by exactly one worker, and worker 0
	// must run on the calling goroutine (checked indirectly: a serial
	// pool sees only worker 0).
	owner := make([]int, 100)
	NewPool(1).ParallelFor(len(owner), func(w, i int) { owner[i] = w + 1 })
	for i, w := range owner {
		if w != 1 {
			t.Fatalf("serial pool gave index %d to worker %d", i, w-1)
		}
	}
}

// netBytes serializes n for byte-exact comparison.
func netBytes(t *testing.T, n *Net) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Checkpoint(&buf); err != nil {
		t.Fatalf("save net: %v", err)
	}
	return buf.Bytes()
}

func trainSequences(n int, g *stats.RNG) []Sequence {
	data := make([]Sequence, n)
	for i := range data {
		taus := make([]float64, 4+g.Intn(20))
		for j := range taus {
			taus[j] = g.Exponential(40)
		}
		data[i] = Sequence{
			Taus:     taus,
			Size:     64 + float64(g.Intn(4000)),
			Survival: g.Exponential(80),
		}
	}
	return data
}

// TestFitWorkersBitExact is the nn-layer half of the determinism
// contract (DESIGN.md "Parallel execution & determinism"): Fit must
// return a byte-identical TrainResult and byte-identical weights for
// every worker count.
func TestFitWorkersBitExact(t *testing.T) {
	run := func(workers int) (TrainResult, []byte) {
		n := NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
		res := n.Fit(trainSequences(60, stats.NewRNG(5)), TrainConfig{
			MaxEpochs: 4, Patience: 2, Batch: 8,
			Workers: workers, Seed: 11,
		})
		return res, netBytes(t, n)
	}
	baseRes, baseW := run(1)
	for _, w := range []int{2, 4, 7} {
		res, wb := run(w)
		if res != baseRes {
			t.Errorf("workers=%d TrainResult diverged:\n serial: %+v\n workers: %+v", w, baseRes, res)
		}
		if !bytes.Equal(wb, baseW) {
			t.Errorf("workers=%d produced different weight bytes than serial", w)
		}
	}
}

// TestShadowSharesWeights pins the aliasing contract Shadow's doc
// promises: weight updates through the master are visible to shadows,
// while gradients stay private.
func TestShadowSharesWeights(t *testing.T) {
	n := NewNet(Config{Hidden: 4, MLPHidden: 6, K: 2, Seed: 1})
	s := n.Shadow()
	np, sp := n.Params(), s.Params()
	if len(np) != len(sp) {
		t.Fatalf("shadow has %d params, master %d", len(sp), len(np))
	}
	for i := range np {
		if &np[i].W[0] != &sp[i].W[0] {
			t.Errorf("param %s: shadow weights do not alias the master", np[i].Name)
		}
		if &np[i].G[0] == &sp[i].G[0] {
			t.Errorf("param %s: shadow gradients alias the master", np[i].Name)
		}
	}
	np[0].W[0] = 42
	if sp[0].W[0] != 42 {
		t.Error("weight update through master not visible in shadow")
	}
}

func BenchmarkPredict(b *testing.B) {
	n := NewNet(Config{TimeScale: 40, Seed: 1})
	h := n.EmbedHistoryInto(nil, []float64{3, 5, 2, 8, 13, 1, 4, 6})
	scr := n.NewPredictScratch()
	in := []PredictInput{{H: h, Size: 1000, Age: 7}}
	mix := make([]Mixture, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.PredictBatch(scr, in, mix)
	}
}

func BenchmarkFitEpoch(b *testing.B) {
	data := trainSequences(256, stats.NewRNG(3))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			n := NewNet(Config{TimeScale: 40, Seed: 3})
			tc := TrainConfig{MaxEpochs: 1, Patience: 1, Workers: w, Seed: 9}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Fit(data, tc)
			}
		})
	}
	// One cold fit per iteration (the net's fit scratch dropped first),
	// each one epoch (MaxEpochs 1) at the served net and training
	// shape, survival on, guarded; ns/term divides by the trained
	// terms. served-shape is the cold fit the servers run on a full
	// first window: 4 000 sequences of mean ≈ 13 loss terms, history
	// capped at 32. short is the cdn_miss_heavy regime: 4 000 sequences
	// of about two interarrivals each, where the per-minibatch epilogue
	// (shard reduction, guard checks, Adam) is about a fifth of a fit.
	// served-shape-repeat is served-shape on a net that keeps the
	// scratch of the fit before, as a server's every fit after its
	// first: its B/op and allocs/op are a retraining's steady state.
	for _, shape := range []struct {
		name   string
		taus   func(g *stats.RNG) int
		repeat bool
	}{
		{"served-shape", func(g *stats.RNG) int { return int(g.Exponential(13)) }, false},
		{"served-shape-repeat", func(g *stats.RNG) int { return int(g.Exponential(13)) }, true},
		{"short", func(g *stats.RNG) int { return 1 + g.Intn(3) }, false},
	} {
		b.Run(shape.name, func(b *testing.B) {
			g := stats.NewRNG(3)
			data := make([]Sequence, 4000)
			for i := range data {
				taus := make([]float64, shape.taus(g))
				for j := range taus {
					taus[j] = g.Exponential(40)
				}
				data[i] = Sequence{Taus: taus, Size: 64 + float64(g.Intn(4000)), Survival: g.Exponential(80)}
			}
			n := NewNet(Config{TimeScale: 40, Seed: 3})
			tc := TrainConfig{MaxEpochs: 1, Patience: 1, Seed: 9}
			if shape.repeat {
				n.Fit(data, tc)
			}
			terms := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !shape.repeat {
					n.fit = nil
				}
				terms += n.Fit(data, tc).Terms
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(terms), "ns/term")
		})
	}
}
