// Package nn is a small, dependency-free neural-network substrate
// built for Raven's mixture density network (§4.2): float64 vector
// math, dense layers, a GRU cell with full backpropagation through
// time, a log-normal mixture density head with the paper's
// log-likelihood + survival-probability loss (Eq. 4–5), and the Adam
// optimizer. Gradients are hand-derived and verified against finite
// differences in the package tests.
//
// The networks Raven trains are tiny (thousands of parameters), and
// their matrix kernels are where a fit spends its time. Each kernel is
// a Go loop with four accumulator chains that break the floating-point
// dependency chain (this file). On amd64 CPUs with AVX, matVec,
// matTVecAdd and outerAdd run as assembly (kern_amd64.s) whose four
// 256-bit lanes are exactly those four chains — multiply then add,
// never fused, summed across lanes as (s0+s1)+(s2+s3) — so both paths
// produce the same bits, and the Go loops are the oracle the kernel
// tests compare the assembly against. The elementwise passes — the
// ReLU masks, the shard reduction, Adam's update and the finiteness
// check — have AVX forms too, four entries per instruction with each
// operation rounded as the Go loop rounds it. The training loop
// exploits data parallelism across sequences through the fork-join
// Pool in pool.go (the package's single sanctioned source of
// goroutines, enforced by ravenlint's goroutine-outside-pool rule).
//
// Determinism contract: every parallel code path in this package is
// bit-exact for any worker count. Work is partitioned by index, each
// shard accumulates into private buffers, and reductions run serially
// in fixed index order, so Workers=1 and Workers=N produce identical
// bytes (see DESIGN.md "Parallel execution & determinism").
package nn

import "math"

// axpy computes y += a*x.
func axpy(a float64, x, y []float64) {
	if len(x) == 0 {
		return
	}
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// matVecGo computes y = W*x + y0 where W is rows×cols row-major,
// len(x) = cols, len(y) = rows. y is overwritten with W*x when y0 is
// nil, otherwise y = W*x + y0 (y and y0 may alias; y and x may not).
//
// The dot product runs four independent accumulator chains and
// combines them as (s0+s1)+(s2+s3); the association is fixed, so the
// result is deterministic (and identical for every worker count),
// just not bit-identical to a single-chain sum.
func matVecGo(w []float64, rows, cols int, x, y0, y []float64) {
	x = x[:cols]
	for r := 0; r < rows; r++ {
		row := w[r*cols : r*cols+cols]
		var s0, s1, s2, s3 float64
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

// matVecAdd computes y += U*x for a square h×h matrix U.
func matVecAdd(uw []float64, h int, x, y []float64) { matVec(uw, h, h, x, y, y) }

// matTVecAddGo computes dx += W^T * dy.
func matTVecAddGo(w []float64, rows, cols int, dy, dx []float64) {
	dx = dx[:cols]
	for r := 0; r < rows; r++ {
		row := w[r*cols : r*cols+cols]
		d := dy[r]
		if d == 0 { //lint:allow float-equal exact zero skips dead gradient rows; bit-exact by design
			continue
		}
		c := 0
		for ; c+4 <= cols; c += 4 {
			dx[c] += row[c] * d
			dx[c+1] += row[c+1] * d
			dx[c+2] += row[c+2] * d
			dx[c+3] += row[c+3] * d
		}
		for ; c < cols; c++ {
			dx[c] += row[c] * d
		}
	}
}

// outerAddGo accumulates dW += dy ⊗ x (rank-one update).
func outerAddGo(dw []float64, rows, cols int, dy, x []float64) {
	x = x[:cols]
	for r := 0; r < rows; r++ {
		d := dy[r]
		if d == 0 { //lint:allow float-equal exact zero skips dead gradient rows; bit-exact by design
			continue
		}
		row := dw[r*cols : r*cols+cols]
		c := 0
		for ; c+4 <= cols; c += 4 {
			row[c] += d * x[c]
			row[c+1] += d * x[c+1]
			row[c+2] += d * x[c+2]
			row[c+3] += d * x[c+3]
		}
		for ; c < cols; c++ {
			row[c] += d * x[c]
		}
	}
}

// reluGo sets y_i = x_i if x_i > 0, else +0 (so ±0 and NaN give +0).
// x and y may alias.
func reluGo(x, y []float64) {
	checkLen(y, len(x))
	y = y[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

// reluBackwardGo sets dy_i = +0 where y_i <= 0 and leaves it where y_i
// is positive or NaN.
func reluBackwardGo(y, dy []float64) {
	checkLen(y, len(dy))
	y = y[:len(dy)]
	for i := range dy {
		if y[i] <= 0 {
			dy[i] = 0
		}
	}
}

// reduceZeroGo adds each of srcs into dst, in order, and clears it:
// dst_i += src_i, then src_i = +0. It is how the shards' gradient
// vectors fold into the master's and are left ready for the next
// minibatch.
func reduceZeroGo(dst []float64, srcs [][]float64) {
	for _, src := range srcs {
		checkLen(src, len(dst))
	}
	for _, src := range srcs {
		src = src[:len(dst)]
		for i, v := range src {
			dst[i] += v
			src[i] = 0
		}
	}
}

// adamCoef is what one Adam step applies to every parameter: the
// gradient scale, the moment decays β and 1−β, the bias corrections
// c = 1−β^t, the learning rate and ε.
type adamCoef struct {
	scale, b1, nb1, b2, nb2, c1, c2, lr, eps float64
}

// adamUpdateGo is Adam's elementwise update: for each parameter
//
//	g = G·scale
//	m = β1·m + (1−β1)·g
//	v = β2·v + (1−β2)·g·g
//	W -= lr·(m/c1) / (√(v/c2) + ε)
//
// each operation rounded on its own, then G = +0.
func adamUpdateGo(w, g, m, v []float64, c *adamCoef) {
	checkLen(g, len(w))
	checkLen(m, len(w))
	checkLen(v, len(w))
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i] * c.scale
		m[i] = c.b1*m[i] + c.nb1*gi
		v[i] = c.b2*v[i] + c.nb2*gi*gi
		mh := m[i] / c.c1
		vh := v[i] / c.c2
		w[i] -= c.lr * mh / (math.Sqrt(vh) + c.eps)
		g[i] = 0
	}
}

// finiteGo reports whether every element of x is finite.
func finiteGo(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// checkLen panics with a runtime index error unless v has at least n
// entries. The elementwise kernels call it for every slice before they
// write anything; a reslice would not do, as it may reach past the
// length into the capacity.
func checkLen(v []float64, n int) {
	if n > 0 {
		_ = v[n-1]
	}
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
