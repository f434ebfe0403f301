package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

func TestMatVec32MatchesF64(t *testing.T) {
	g := stats.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		rows := 1 + g.Intn(9)
		cols := 1 + g.Intn(9)
		w := make([]float64, rows*cols)
		w32 := make([]float32, rows*cols)
		for i := range w {
			w[i] = g.NormFloat64()
			w32[i] = float32(w[i])
		}
		x := make([]float64, cols)
		x32 := make([]float32, cols)
		for i := range x {
			x[i] = g.NormFloat64()
			x32[i] = float32(x[i])
		}
		b := make([]float64, rows)
		b32 := make([]float32, rows)
		for i := range b {
			b[i] = g.NormFloat64()
			b32[i] = float32(b[i])
		}
		y := make([]float64, rows)
		y32 := make([]float32, rows)
		matVec(w, rows, cols, x, b, y)
		matVec32(w32, rows, cols, x32, b32, y32)
		for i := range y {
			if d := math.Abs(float64(y32[i]) - y[i]); d > 1e-4 {
				t.Fatalf("trial %d row %d: f32 %v vs f64 %v (|Δ|=%g)", trial, i, y32[i], y[i], d)
			}
		}
	}
}

// testNet returns a small trained-ish net (random weights are fine:
// the inference paths only need deterministic weights, not good ones).
func testNet() *Net {
	return NewNet(Config{Hidden: 8, MLPHidden: 12, K: 4, TimeScale: 50, Seed: 3})
}

// predictOne predicts one input as a batch of one.
func predictOne(n *Net, h []float64, size, age float64) Mixture {
	out := make([]Mixture, 1)
	n.PredictBatch(n.NewPredictScratch(), []PredictInput{{H: h, Size: size, Age: age}}, out)
	return out[0]
}

// TestPredictBatchRowsIndependent: every row of a PredictBatch over 1–33
// inputs has the bits of that input predicted as a batch of one, through
// a scratch that earlier batches grew and filled.
func TestPredictBatchRowsIndependent(t *testing.T) {
	n := testNet()
	g := stats.NewRNG(5)
	s := n.NewPredictScratch()
	for c := 1; c <= 33; c++ {
		in := make([]PredictInput, c)
		for i := range in {
			h := make([]float64, n.Cfg.Hidden)
			for j := range h {
				h[j] = g.NormFloat64()
			}
			in[i] = PredictInput{H: h, Size: float64(1 + g.Intn(4096)), Age: float64(g.Intn(1000))}
		}
		batched := make([]Mixture, c)
		n.PredictBatch(s, in, batched)
		for i := range in {
			want := predictOne(n, in[i].H, in[i].Size, in[i].Age)
			for k := 0; k < n.Cfg.K; k++ {
				got := [3]uint64{math.Float64bits(batched[i].W[k]), math.Float64bits(batched[i].Mu[k]), math.Float64bits(batched[i].S[k])}
				one := [3]uint64{math.Float64bits(want.W[k]), math.Float64bits(want.Mu[k]), math.Float64bits(want.S[k])}
				if got != one {
					t.Fatalf("batch of %d, row %d, component %d: bits %#x, alone %#x", c, i, k, got, one)
				}
			}
		}
	}
}

func TestFrozen32MatchesF64WithinTolerance(t *testing.T) {
	n := testNet()
	fz := n.Freeze32()
	s64 := n.NewPredictScratch()
	s32 := fz.NewScratch()
	g := stats.NewRNG(9)
	for trial := 0; trial < 100; trial++ {
		h := make([]float64, n.Cfg.Hidden)
		for j := range h {
			h[j] = g.NormFloat64()
		}
		size := float64(1 + g.Intn(1<<20))
		age := float64(g.Intn(5000))
		in := []PredictInput{{H: h, Size: size, Age: age}}
		out := make([]Mixture, 2)
		n.PredictBatch(s64, in, out[:1])
		fz.PredictBatch(s32, in, out[1:])
		m64, m32 := out[0], out[1]
		for k := 0; k < n.Cfg.K; k++ {
			if d := math.Abs(m32.W[k] - m64.W[k]); d > 1e-4 {
				t.Fatalf("trial %d W[%d]: f32 %v vs f64 %v", trial, k, m32.W[k], m64.W[k])
			}
			if d := math.Abs(m32.Mu[k] - m64.Mu[k]); d > 1e-3*(1+math.Abs(m64.Mu[k])) {
				t.Fatalf("trial %d Mu[%d]: f32 %v vs f64 %v", trial, k, m32.Mu[k], m64.Mu[k])
			}
			if d := math.Abs(m32.S[k] - m64.S[k]); d > 1e-3*(1+m64.S[k]) {
				t.Fatalf("trial %d S[%d]: f32 %v vs f64 %v", trial, k, m32.S[k], m64.S[k])
			}
		}
	}
}

func TestFreeze32CachedUntilVersionMoves(t *testing.T) {
	n := testNet()
	a := n.Freeze32()
	if b := n.Freeze32(); b != a {
		t.Fatalf("Freeze32 rebuilt despite unchanged Version")
	}
	n.Version++
	c := n.Freeze32()
	if c == a {
		t.Fatalf("Freeze32 returned a stale freeze after Version moved")
	}
	if c.Version != n.Version {
		t.Fatalf("frozen Version = %d, want %d", c.Version, n.Version)
	}
}

func TestFrozen32PredictAllocFree(t *testing.T) {
	n := testNet()
	fz := n.Freeze32()
	s := fz.NewScratch()
	in := []PredictInput{{H: make([]float64, n.Cfg.Hidden), Size: 100, Age: 10}}
	out := make([]Mixture, 1)
	fz.PredictBatch(s, in, out) // first call fills the mixture
	allocs := testing.AllocsPerRun(200, func() {
		fz.PredictBatch(s, in, out)
	})
	if allocs != 0 {
		t.Fatalf("Frozen32.PredictBatch allocates %v/op, want 0", allocs)
	}
}
