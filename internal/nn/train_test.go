package nn

import (
	"bytes"
	"testing"

	"raven/internal/stats"
)

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

// fitBytes fits n on data and returns the result and n's weight bytes.
// A nil tr fits inline, on the caller's goroutine, as every replay
// does; otherwise the fit is a job on tr's worker thread, as
// ravencached runs it, and fitBytes waits for it.
func fitBytes(t *testing.T, tr *Trainer, n *Net, data []Sequence, tc TrainConfig) (TrainResult, []byte) {
	t.Helper()
	if tr == nil {
		return n.Fit(data, tc), netBytes(t, n)
	}
	type done struct {
		res TrainResult
		ok  bool
	}
	ch := make(chan done, 1)
	if !tr.Submit(func() {
		res, ok := tr.Fit(n, data, tc)
		ch <- done{res, ok}
	}) {
		t.Fatal("the trainer refused a job")
	}
	d := <-ch
	if !d.ok {
		t.Fatal("the trainer reported its fit as not to be kept")
	}
	return d.res, netBytes(t, n)
}

// TestFitWorkersBitExact: a fit's TrainResult and weight bytes depend
// on its seeds alone, not on the goroutine that runs it. Fits once
// fanned out over workers and this test compared worker counts; a fit
// has one schedule now, and the test compares an inline fit with a
// second inline fit and with the same fit run on the trainer's worker
// thread (idle-class on Linux).
func TestFitWorkersBitExact(t *testing.T) {
	tr := NewTrainer()
	defer tr.Close()
	run := func(tr *Trainer) (TrainResult, []byte) {
		n := NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 40, Seed: 3})
		return fitBytes(t, tr, n, trainSequences(60, stats.NewRNG(5)), TrainConfig{
			MaxEpochs: 4, Patience: 2, Batch: 8, Seed: 11,
		})
	}
	baseRes, baseW := run(nil)
	for _, where := range []struct {
		name string
		tr   *Trainer
	}{{"inline", nil}, {"trainer", tr}} {
		res, wb := run(where.tr)
		if res != baseRes {
			t.Errorf("%s: TrainResult diverged:\n first: %+v\n   got: %+v", where.name, baseRes, res)
		}
		if !bytes.Equal(wb, baseW) {
			t.Errorf("%s: produced different weight bytes than the first inline fit", where.name)
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
