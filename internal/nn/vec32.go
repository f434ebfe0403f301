package nn

// float32 inference kernels. Training stays float64 end-to-end (the
// hand-derived gradients and the finite-difference tests depend on
// f64 precision); these kernels serve only the frozen inference path
// (Frozen32, infer32.go), where halving the operand width roughly
// doubles effective SIMD lanes and halves the weight-matrix cache
// footprint. The mixture parameters an f32 forward pass produces
// differ from the f64 pass by ~1e-6 relative — far below the Monte
// Carlo win count's own sampling noise (DESIGN.md "Inference fast
// path & SLO" states the error budget under either estimator).
//
// The kernels mirror vec.go's shape exactly: 4-wide unrolled
// accumulator chains combined as (s0+s1)+(s2+s3), so results are
// deterministic (fixed association).

// matVec32 computes y = W*x + y0 where W is rows×cols row-major,
// len(x) = cols, len(y) = rows. y is overwritten with W*x when y0 is
// nil, otherwise y = W*x + y0 (y and y0 may alias).
func matVec32(w []float32, rows, cols int, x, y0, y []float32) {
	x = x[:cols]
	for r := 0; r < rows; r++ {
		row := w[r*cols : r*cols+cols]
		var s0, s1, s2, s3 float32
		c := 0
		for ; c+4 <= cols; c += 4 {
			s0 += row[c] * x[c]
			s1 += row[c+1] * x[c+1]
			s2 += row[c+2] * x[c+2]
			s3 += row[c+3] * x[c+3]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; c < cols; c++ {
			s += row[c] * x[c]
		}
		if y0 != nil {
			s += y0[r]
		}
		y[r] = s
	}
}

// relu32 applies max(0, x) elementwise from x into y (may alias).
func relu32(x, y []float32) {
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

// quantize32 copies an f64 tensor into a freshly allocated f32 one.
func quantize32(w []float64) []float32 {
	out := make([]float32, len(w))
	for i, v := range w {
		out[i] = float32(v)
	}
	return out
}
