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

func TestPredictBatchMatchesPredictWith(t *testing.T) {
	n := testNet()
	g := stats.NewRNG(5)
	const batch = 16
	in := make([]PredictInput, batch)
	for i := range in {
		h := make([]float64, n.Cfg.Hidden)
		for j := range h {
			h[j] = g.NormFloat64()
		}
		in[i] = PredictInput{H: h, Size: float64(1 + g.Intn(4096)), Age: float64(g.Intn(1000))}
	}
	batched := make([]Mixture, batch)
	n.PredictBatch(n.NewPredictScratch(), in, batched)
	s := n.NewPredictScratch()
	for i := range in {
		var want Mixture
		n.PredictWith(s, in[i].H, in[i].Size, in[i].Age, &want)
		for k := 0; k < n.Cfg.K; k++ {
			if batched[i].W[k] != want.W[k] || batched[i].Mu[k] != want.Mu[k] || batched[i].S[k] != want.S[k] {
				t.Fatalf("candidate %d component %d: batch (%v,%v,%v) != single (%v,%v,%v)",
					i, k, batched[i].W[k], batched[i].Mu[k], batched[i].S[k], want.W[k], want.Mu[k], want.S[k])
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
		var m64, m32 Mixture
		n.PredictWith(s64, h, size, age, &m64)
		fz.Predict(s32, h, size, age, &m32)
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
	h := make([]float64, n.Cfg.Hidden)
	var out Mixture
	fz.Predict(s, h, 100, 10, &out) // first call fills the mixture
	allocs := testing.AllocsPerRun(200, func() {
		fz.Predict(s, h, 100, 10, &out)
	})
	if allocs != 0 {
		t.Fatalf("Frozen32.Predict allocates %v/op, want 0", allocs)
	}
}
