package nn

import (
	"math"
	"testing"
	"testing/quick"

	"raven/internal/stats"
)

func TestMatVec(t *testing.T) {
	// W = [[1 2], [3 4], [5 6]], x = [1, -1]
	w := []float64{1, 2, 3, 4, 5, 6}
	x := []float64{1, -1}
	y := make([]float64, 3)
	matVec(w, 3, 2, x, nil, y)
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	// With bias.
	matVec(w, 3, 2, x, []float64{10, 20, 30}, y)
	want = []float64{9, 19, 29}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("with bias y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMatTVecAddIsTranspose(t *testing.T) {
	// Property: dy^T (W x) == (W^T dy)^T x for random shapes.
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		rows := 1 + g.Intn(6)
		cols := 1 + g.Intn(6)
		w := make([]float64, rows*cols)
		for i := range w {
			w[i] = g.NormFloat64()
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = g.NormFloat64()
		}
		dy := make([]float64, rows)
		for i := range dy {
			dy[i] = g.NormFloat64()
		}
		wx := make([]float64, rows)
		matVec(w, rows, cols, x, nil, wx)
		lhs := 0.0
		for i := range dy {
			lhs += dy[i] * wx[i]
		}
		wtdy := make([]float64, cols)
		matTVecAdd(w, rows, cols, dy, wtdy)
		rhs := 0.0
		for i := range x {
			rhs += wtdy[i] * x[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOuterAdd(t *testing.T) {
	dw := make([]float64, 6)
	outerAddRows(dw, 3, 2, []float64{1, 2, 3}, []float64{10, 20}, 1)
	want := []float64{10, 20, 20, 40, 30, 60}
	for i := range want {
		if dw[i] != want[i] {
			t.Errorf("dw[%d] = %v, want %v", i, dw[i], want[i])
		}
	}
}

func TestDenseBackwardFiniteDifference(t *testing.T) {
	g := stats.NewRNG(3)
	d := NewDense("d", 3, 2, g)
	x := []float64{0.5, -1.2, 0.3}
	dy := []float64{1.0, -0.5}

	// Loss = dy · (Wx + b); analytic dL/dW = dy ⊗ x, dL/db = dy,
	// dL/dx = W^T dy.
	loss := func() float64 {
		y := make([]float64, 2)
		d.Forward(x, y)
		return dy[0]*y[0] + dy[1]*y[1]
	}
	dx := make([]float64, 3)
	d.Backward(x, dy, dx)
	for i := range d.W.W {
		num := numericalGrad(&d.W.W[i], loss)
		checkClose(t, "dense dW", d.W.G[i], num, 1e-6)
	}
	for i := range d.B.W {
		num := numericalGrad(&d.B.W[i], loss)
		checkClose(t, "dense dB", d.B.G[i], num, 1e-6)
	}
	for i := range x {
		num := numericalGrad(&x[i], loss)
		checkClose(t, "dense dx", dx[i], num, 1e-6)
	}
}

func TestReLUBackwardMasks(t *testing.T) {
	y := []float64{0, 2, 0, 3}
	dy := []float64{1, 1, 1, 1}
	reluBackward(y, dy)
	want := []float64{0, 1, 0, 1}
	for i := range want {
		if dy[i] != want[i] {
			t.Errorf("dy[%d] = %v, want %v", i, dy[i], want[i])
		}
	}
}

func TestAdamGradientClipping(t *testing.T) {
	p := newParam("w", 2)
	opt := NewAdam(0.1, []*Param{p})
	opt.Clip = 1
	p.G[0], p.G[1] = 1e9, 1e9 // enormous gradient
	opt.Step(1)
	for _, w := range p.W {
		if math.Abs(w) > 0.2 {
			t.Errorf("clipped step moved weight too far: %v", w)
		}
		if math.IsNaN(w) {
			t.Error("NaN after clipped step")
		}
	}
}
