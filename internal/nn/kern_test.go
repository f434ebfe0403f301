package nn

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"raven/internal/stats"
)

// kernelCase is one set of operands for every kernel: w, dw, m and v
// are rows×cols, x and dx have cols entries, y0 and dy have rows; the
// row-batched kernels take n input rows, xs (n×cols) and dys (n×rows).
type kernelCase struct {
	rows, cols       int
	w, x, y0, dy, dx []float64
	dw, m, v         []float64
	n                int
	xs, dys          []float64
}

// The operand fills: what a fit produces, and the edges where a
// reordered sum or a skipped row would show.
const (
	fillNormal    = iota // standard normals
	fillZeros            // a third of every operand ±0, dy rows included
	fillExtremes         // magnitudes 1e±300, so products overflow and underflow
	fillNonFinite        // some ±Inf and NaN among normals
	numFills
)

// drawer returns a function that draws n operands of the given fill.
func drawer(g *stats.RNG, fill int) func(n int) []float64 {
	return func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = g.NormFloat64()
			switch fill {
			case fillZeros:
				switch g.Intn(3) {
				case 0:
					v[i] = 0
				case 1:
					v[i] = math.Copysign(0, -1)
				}
			case fillExtremes:
				if g.Intn(2) == 0 {
					v[i] *= 1e300
				} else {
					v[i] *= 1e-300
				}
			case fillNonFinite:
				switch g.Intn(12) {
				case 0:
					v[i] = math.Inf(1)
				case 1:
					v[i] = math.Inf(-1)
				case 2:
					v[i] = math.NaN()
				}
			}
		}
		return v
	}
}

func newKernelCase(rows, cols int, seed int64, fill int) kernelCase {
	g := stats.NewRNG(seed)
	draw := drawer(g, fill)
	c := kernelCase{
		rows: rows, cols: cols,
		w: draw(rows * cols), x: draw(cols), y0: draw(rows), dy: draw(rows),
		dx: draw(cols), dw: draw(rows * cols),
	}
	if fill == fillNormal && rows > 1 {
		c.dy[g.Intn(rows)] = 0 // a dead gradient row, which both paths skip
	}
	c.m, c.v = draw(rows*cols), draw(rows*cols)
	return c
}

// withRows draws the case's n input rows for the row-batched kernels.
// Under fillNormal one dy row is all ±0 and one entry of another is
// +0, which both paths skip.
func (c kernelCase) withRows(n int, seed int64, fill int) kernelCase {
	g := stats.NewRNG(seed)
	draw := drawer(g, fill)
	c.n, c.xs, c.dys = n, draw(n*c.cols), draw(n*c.rows)
	if fill == fillNormal {
		dead := c.dys[g.Intn(n)*c.rows:]
		for r := 0; r < c.rows; r++ {
			dead[r] = math.Copysign(0, float64(g.Intn(2))-0.5)
		}
		c.dys[g.Intn(n*c.rows)] = 0
	}
	return c
}

// adamCase is an Adam step's coefficients at t = 3, with the gradient
// scale drawn from the case's fill (±0, ±Inf and NaN included).
func (c *kernelCase) adamCase() adamCoef {
	return adamCoef{scale: c.x[0], b1: 0.9, nb1: 1 - 0.9, b2: 0.999, nb2: 1 - 0.999,
		c1: 1 - math.Pow(0.9, 3), c2: 1 - math.Pow(0.999, 3), lr: 1e-3, eps: 1e-8}
}

// sameBits reports whether two kernel outputs agree: bit for bit, or
// both NaN (NaN payloads may differ between the paths).
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
				return false
			}
		} else if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkKernels runs every kernel through its dispatch (the assembly on
// an AVX CPU) and through its Go loop, on the same operands.
func checkKernels(t *testing.T, c kernelCase) {
	t.Helper()
	fail := func(kernel string, got, want []float64) {
		t.Helper()
		t.Errorf("%s %dx%d: dispatch and Go loop differ\n got: %v\nwant: %v", kernel, c.rows, c.cols, got, want)
	}
	got, want := make([]float64, c.rows), make([]float64, c.rows)
	matVec(c.w, c.rows, c.cols, c.x, nil, got)
	matVecGo(c.w, c.rows, c.cols, c.x, nil, want)
	if !sameBits(got, want) {
		fail("matVec", got, want)
	}
	matVec(c.w, c.rows, c.cols, c.x, c.y0, got)
	matVecGo(c.w, c.rows, c.cols, c.x, c.y0, want)
	if !sameBits(got, want) {
		fail("matVec+y0", got, want)
	}
	if c.rows == c.cols {
		copy(got, c.y0)
		copy(want, c.y0)
		matVecAdd(c.w, c.rows, c.x, got)
		matVecGo(c.w, c.rows, c.cols, c.x, want, want)
		if !sameBits(got, want) {
			fail("matVecAdd", got, want)
		}
	}

	got, want = slices.Clone(c.dx), slices.Clone(c.dx)
	matTVecAdd(c.w, c.rows, c.cols, c.dy, got)
	matTVecAddGo(c.w, c.rows, c.cols, c.dy, want)
	if !sameBits(got, want) {
		fail("matTVecAdd", got, want)
	}

	// One input row is Dense.Backward's call (parrot's 24×7 and 1×24
	// layers).
	got, want = slices.Clone(c.dw), slices.Clone(c.dw)
	outerAddRows(got, c.rows, c.cols, c.dy, c.x, 1)
	outerAddGo(want, c.rows, c.cols, c.dy, c.x)
	if !sameBits(got, want) {
		fail("outerAddRows n=1", got, want)
	}

	if c.n > 0 {
		for _, y0 := range [][]float64{nil, c.y0} {
			got, want = make([]float64, c.n*c.rows), make([]float64, c.n*c.rows)
			matVecRows(c.w, c.rows, c.cols, c.xs, c.n, y0, got)
			matVecRowsGo(c.w, c.rows, c.cols, c.xs, c.n, y0, want)
			if !sameBits(got, want) {
				fail(fmt.Sprintf("matVecRows n=%d y0=%t", c.n, y0 != nil), got, want)
			}
		}
		got, want = slices.Clone(c.dw), slices.Clone(c.dw)
		outerAddRows(got, c.rows, c.cols, c.dys, c.xs, c.n)
		outerAddRowsGo(want, c.rows, c.cols, c.dys, c.xs, c.n)
		if !sameBits(got, want) {
			fail(fmt.Sprintf("outerAddRows n=%d", c.n), got, want)
		}
		got, want = slices.Clone(c.xs), slices.Clone(c.xs)
		matTVecAddRows(c.w, c.rows, c.cols, c.dys, c.n, got)
		matTVecAddRowsGo(c.w, c.rows, c.cols, c.dys, c.n, want)
		if !sameBits(got, want) {
			fail(fmt.Sprintf("matTVecAddRows n=%d", c.n), got, want)
		}
		got, want = slices.Clone(c.x), slices.Clone(c.x)
		addRows(got, c.cols, c.xs, c.n)
		addRowsGo(want, c.cols, c.xs, c.n)
		if !sameBits(got, want) {
			fail(fmt.Sprintf("addRows n=%d", c.n), got, want)
		}
	}

	// The elementwise kernels, over the rows×cols operands.
	got, want = make([]float64, len(c.w)), make([]float64, len(c.w))
	relu(c.w, got)
	reluGo(c.w, want)
	if !sameBits(got, want) {
		fail("relu", got, want)
	}
	got, want = slices.Clone(c.dw), slices.Clone(c.dw)
	reluBackward(c.w, got)
	reluBackwardGo(c.w, want)
	if !sameBits(got, want) {
		fail("reluBackward", got, want)
	}

	got, want = make([]float64, len(c.w)), make([]float64, len(c.w))
	expSlice(c.w, got)
	expGo(c.w, want)
	if !sameBits(got, want) {
		fail("exp", got, want)
	}
	for _, k := range []struct {
		name         string
		slice, goRef func(x, y []float64)
	}{{"sigmoid", sigmoidSlice, sigmoidGo}, {"tanh", tanhSlice, tanhGo}, {"log1p", log1pSlice, log1pGo}} {
		k.slice(c.w, got)
		k.goRef(c.w, want)
		if !sameBits(got, want) {
			fail(k.name, got, want)
		}
	}
	abs := make([]float64, len(c.w)) // mostly the kernel's range: log takes |w|
	for i, v := range c.w {
		abs[i] = math.Abs(v)
	}
	logSlice(abs, got)
	logGo(abs, want)
	if !sameBits(got, want) {
		fail("log", got, want)
	}
	log1pSlice(abs, got)
	log1pGo(abs, want)
	if !sameBits(got, want) {
		fail("log1p of |w|", got, want)
	}

	got, want = slices.Clone(c.dw), slices.Clone(c.dw)
	gotSrc, wantSrc := slices.Clone(c.w), slices.Clone(c.w)
	reduceZero(got, gotSrc)
	reduceZeroGo(want, wantSrc)
	if !sameBits(got, want) {
		fail("reduceZero/dst", got, want)
	}
	if !sameBits(gotSrc, wantSrc) {
		fail("reduceZero/src", gotSrc, wantSrc)
	}

	coef := c.adamCase()
	gotW, gotG, gotM, gotV := slices.Clone(c.w), slices.Clone(c.dw), slices.Clone(c.m), slices.Clone(c.v)
	wantW, wantG, wantM, wantV := slices.Clone(c.w), slices.Clone(c.dw), slices.Clone(c.m), slices.Clone(c.v)
	adamUpdate(gotW, gotG, gotM, gotV, &coef)
	adamUpdateGo(wantW, wantG, wantM, wantV, &coef)
	for _, o := range []struct {
		name      string
		got, want []float64
	}{{"adamUpdate/w", gotW, wantW}, {"adamUpdate/g", gotG, wantG}, {"adamUpdate/m", gotM, wantM}, {"adamUpdate/v", gotV, wantV}} {
		if !sameBits(o.got, o.want) {
			fail(o.name, o.got, o.want)
		}
	}

	for _, v := range [][]float64{c.w, c.x, c.dy} {
		if got, want := finite(v), finiteGo(v); got != want {
			t.Errorf("finite(%v) = %t, Go loop %t", v, got, want)
		}
	}
}

// checkGRUInput runs a GRU of width h through its scalar-input terms
// (GRU.inputs, GRU.inputGrads) and through what they replace — the
// h×1 matVec and outerAddGo of a one-element input vector — on the same
// weights, input and gate gradients, and requires the same bits.
func checkGRUInput(t *testing.T, h int, seed int64, fill int) {
	t.Helper()
	g := stats.NewRNG(seed)
	draw := drawer(g, fill)
	u := newGRU(newSlab(gruParams(h)), "g", h, g)
	for _, p := range u.Params() {
		copy(p.W, draw(len(p.W)))
		copy(p.G, draw(len(p.G)))
	}
	x := draw(1)
	daZ, daR, daH := draw(h), draw(h), draw(h)
	if fill == fillNormal && h > 1 {
		daR[g.Intn(h)] = 0 // a dead gradient row, which both forms skip
	}

	z, r, hc := make([]float64, h), make([]float64, h), make([]float64, h)
	u.inputs(x[0], z, r, hc)
	for _, k := range []struct {
		name    string
		got     []float64
		weights *Param
		bias    *Param
	}{{"inputs/z", z, u.Wz, u.Bz}, {"inputs/r", r, u.Wr, u.Br}, {"inputs/hc", hc, u.Wh, u.Bh}} {
		want := make([]float64, h)
		matVec(k.weights.W, h, 1, x, k.bias.W, want)
		if !sameBits(k.got, want) {
			t.Errorf("GRU %s h=%d: scalar input and matVec differ\n got: %v\nwant: %v", k.name, h, k.got, want)
		}
	}

	want := [][]float64{slices.Clone(u.Wz.G), slices.Clone(u.Wr.G), slices.Clone(u.Wh.G)}
	outerAddGo(want[0], h, 1, daZ, x)
	outerAddGo(want[1], h, 1, daR, x)
	outerAddGo(want[2], h, 1, daH, x)
	u.inputGrads(x[0], daZ, daR, daH)
	for i, got := range [][]float64{u.Wz.G, u.Wr.G, u.Wh.G} {
		if !sameBits(got, want[i]) {
			t.Errorf("GRU inputGrads %d h=%d: scalar input and outerAddGo differ\n got: %v\nwant: %v", i, h, got, want[i])
		}
	}
}

// gruBackwardRef is the per-step backward the row pass (GRU.backward,
// then GRU.paramGrads once per sequence) replaced, kept as its oracle:
// one step's BPTT with that step's parameter gradients accumulated at
// once — outerAddGo and addTo per gate, inputGrads — between the state
// gradient's terms. zr, rh and hc are what GRU.step left.
func gruBackwardRef(u *GRU, x float64, prev, zr, rh, hc, dNext, dPrev []float64) {
	H := u.HiddenN
	z, r := zr[:H], zr[H:2*H]
	dz, dhc, daH, drh := make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H)
	dr, daZ, daR := make([]float64, H), make([]float64, H), make([]float64, H)
	for i := 0; i < H; i++ {
		dz[i] = dNext[i] * (hc[i] - prev[i])
		dhc[i] = dNext[i] * z[i]
		dPrev[i] = dNext[i] * (1 - z[i])
		daH[i] = dhc[i] * (1 - hc[i]*hc[i])
	}
	outerAddGo(u.Uh.G, H, H, daH, rh)
	addTo(daH, u.Bh.G)
	matTVecAdd(u.Uh.W, H, H, daH, drh)
	for i := 0; i < H; i++ {
		dr[i] = drh[i] * prev[i]
		dPrev[i] += drh[i] * r[i]
		daZ[i] = dz[i] * z[i] * (1 - z[i])
		daR[i] = dr[i] * r[i] * (1 - r[i])
	}
	u.inputGrads(x, daZ, daR, daH)
	outerAddGo(u.Uz.G, H, H, daZ, prev)
	addTo(daZ, u.Bz.G)
	outerAddGo(u.Ur.G, H, H, daR, prev)
	addTo(daR, u.Br.G)
	matTVecAdd(u.Uz.W, H, H, daZ, dPrev)
	matTVecAdd(u.Ur.W, H, H, daR, dPrev)
}

// checkGRURows runs BPTT through a steps-long chain of a width-h GRU
// both ways — gruBackwardRef step by step, and the row pass — from the
// same weights, starting gradients (±0 and -0 included under the zero
// fill), inputs, initial state and per-step gradients from the MLP, and
// requires the same bits in every parameter gradient and in the
// gradient on the initial state. Under the normal fill one starting
// gradient row is ±0 and the last step's incoming gradient is ±0 in
// places, so some gate gradients are ±0.
func checkGRURows(t *testing.T, h, steps int, seed int64, fill int) {
	t.Helper()
	g := stats.NewRNG(seed)
	draw := drawer(g, fill)
	row := func(b []float64, i int) []float64 { return b[i*h : (i+1)*h] }
	u := newGRU(newSlab(gruParams(h)), "g", h, g)
	ref := newGRU(newSlab(gruParams(h)), "g", h, g)
	for i, p := range u.Params() {
		copy(p.W, draw(len(p.W)))
		copy(p.G, draw(len(p.G)))
		if fill == fillNormal && i == 2 {
			zero(p.G) // Bz.G: the ±0 a fit's gradients start from
			p.G[g.Intn(h)] = math.Copysign(0, -1)
		}
		copy(ref.Params()[i].W, p.W)
		copy(ref.Params()[i].G, p.G)
	}

	xs, dLast, emb := draw(steps), draw(h), draw(steps*h)
	if fill == fillNormal {
		dLast[g.Intn(h)] = 0
		dLast[g.Intn(h)] = math.Copysign(0, -1)
		zero(row(emb, g.Intn(steps)))
	}
	hs, rh, hc := make([]float64, (steps+1)*h), make([]float64, steps*h), make([]float64, steps*h)
	zr := make([]float64, steps*2*h)
	copy(hs, draw(h))
	for i := 0; i < steps; i++ {
		u.step(xs[i], row(hs, i), row(hs, i+1), zr[2*i*h:2*(i+1)*h], row(rh, i), row(hc, i))
	}

	want, dPrev := slices.Clone(dLast), make([]float64, h)
	for i := steps - 1; i >= 0; i-- {
		gruBackwardRef(ref, xs[i], row(hs, i), zr[2*i*h:2*(i+1)*h], row(rh, i), row(hc, i), want, dPrev)
		copy(want, dPrev)
		addTo(row(emb, i), want)
	}

	got, drh := slices.Clone(dLast), make([]float64, h)
	daZ, daR, daH := make([]float64, steps*h), make([]float64, steps*h), make([]float64, steps*h)
	for i := steps - 1; i >= 0; i-- {
		u.backward(got, row(hs, i), zr[2*i*h:2*(i+1)*h], row(rh, i), row(hc, i),
			row(daZ, i), row(daR, i), row(daH, i), dPrev, drh)
		got, dPrev = dPrev, got
		addTo(row(emb, i), got)
	}
	u.paramGrads(xs, hs, rh, daZ, daR, daH, steps)

	if !sameBits(got, want) {
		t.Errorf("GRU h=%d steps=%d fill=%d: row pass and per-step BPTT differ on dh\n got: %v\nwant: %v", h, steps, fill, got, want)
	}
	for i, p := range u.Params() {
		if w := ref.Params()[i].G; !sameBits(p.G, w) {
			t.Errorf("GRU h=%d steps=%d fill=%d: row pass and per-step BPTT differ on %s\n got: %v\nwant: %v", h, steps, fill, p.Name, p.G, w)
		}
	}
}

// TestGRURowPassMatchesSteps is the oracle of the GRU's backward pass:
// for every width up to the served 16 and past it, and every chain
// length up to a served sequence (MaxSeq 32) plus one, the row pass
// has the per-step formulation's bits.
func TestGRURowPassMatchesSteps(t *testing.T) {
	for h := 1; h <= 24; h++ {
		for steps := 1; steps <= 33; steps++ {
			for fill := 0; fill < numFills; fill++ {
				checkGRURows(t, h, steps, int64(1000*h+10*steps+fill), fill)
			}
		}
	}
}

// TestKernelsMatchGo is the assembly's oracle: on every shape around
// the lane width and the 16-column blocks, and on every fill, each
// kernel's result has the Go loop's bits.
func TestKernelsMatchGo(t *testing.T) {
	if !useAVX {
		t.Log("no AVX on this CPU: the dispatch runs the Go loops, so this checks nothing")
	}
	for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 18, 20, 24, 31, 32, 33, 48, 64} {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 24} {
			for fill := 0; fill < numFills; fill++ {
				checkKernels(t, newKernelCase(rows, cols, int64(100*rows+cols), fill))
			}
		}
	}
	// The row-batched kernels over 1 to 33 input rows: every remainder
	// of the four-row blocks, and up to a served sequence plus its
	// survival row.
	for n := 1; n <= 33; n++ {
		for _, shape := range [][2]int{{1, 1}, {2, 3}, {3, 5}, {8, 24}, {24, 18}, {24, 24}, {5, 17}, {7, 33}} {
			for fill := 0; fill < numFills; fill++ {
				seed := int64(1000*n + 10*shape[0] + shape[1])
				checkKernels(t, newKernelCase(shape[0], shape[1], seed, fill).withRows(n, seed+1, fill))
			}
		}
	}
	for _, h := range []int{1, 2, 3, 4, 5, 8, 16, 17, 24} {
		for fill := 0; fill < numFills; fill++ {
			for seed := int64(0); seed < 4; seed++ {
				checkGRUInput(t, h, 100*int64(h)+seed, fill)
			}
		}
	}
}

func FuzzKernels(f *testing.F) {
	f.Add(uint8(24), uint8(24), int64(1), uint8(fillNormal))
	f.Add(uint8(16), uint8(18), int64(2), uint8(fillZeros))
	f.Add(uint8(5), uint8(17), int64(3), uint8(fillExtremes))
	f.Add(uint8(8), uint8(4), int64(4), uint8(fillNonFinite))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, fill uint8) {
		n := int(uint64(seed)%33) + 1
		checkKernels(t, newKernelCase(int(rows%80)+1, int(cols%80)+1, seed, int(fill%numFills)).withRows(n, seed, int(fill%numFills)))
		checkGRUInput(t, int(rows%80)+1, seed, int(fill%numFills))
		checkGRURows(t, int(rows%24)+1, n, seed, int(fill%numFills))
	})
}

// TestKernelsShortSlicesPanic pins the wrappers' length proof: a slice
// one element short panics with a runtime index error before the
// assembly runs, so no output is touched and nothing past a slice's
// end is read or written.
func TestKernelsShortSlicesPanic(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this CPU: the kernels are the Go loops")
	}
	const rows, cols, n = 5, 8, 6
	c := newKernelCase(rows, cols, 1, fillNormal).withRows(n, 2, fillNormal)
	coef := c.adamCase()
	u := newGRU(newSlab(gruParams(rows)), "g", rows, stats.NewRNG(1))
	short := func(v []float64) []float64 { return v[:len(v)-1] }
	clone := slices.Clone[[]float64]
	calls := []struct {
		name string
		out  []float64
		call func(out []float64)
	}{
		{"matVec/w", make([]float64, rows), func(y []float64) { matVec(short(c.w), rows, cols, c.x, nil, y) }},
		{"matVec/x", make([]float64, rows), func(y []float64) { matVec(c.w, rows, cols, short(c.x), nil, y) }},
		{"matVec/y0", make([]float64, rows), func(y []float64) { matVec(c.w, rows, cols, c.x, short(c.y0), y) }},
		{"matVec/y", make([]float64, rows), func(y []float64) { matVec(c.w, rows, cols, c.x, nil, short(y)) }},
		{"matTVecAdd/w", slices.Clone(c.dx), func(dx []float64) { matTVecAdd(short(c.w), rows, cols, c.dy, dx) }},
		{"matTVecAdd/dy", slices.Clone(c.dx), func(dx []float64) { matTVecAdd(c.w, rows, cols, short(c.dy), dx) }},
		{"matTVecAdd/dx", slices.Clone(c.dx), func(dx []float64) { matTVecAdd(c.w, rows, cols, c.dy, short(dx)) }},
		{"matVecRows/w", make([]float64, n*rows), func(y []float64) { matVecRows(short(c.w), rows, cols, c.xs, n, c.y0, y) }},
		{"matVecRows/x", make([]float64, n*rows), func(y []float64) { matVecRows(c.w, rows, cols, short(c.xs), n, c.y0, y) }},
		{"matVecRows/y0", make([]float64, n*rows), func(y []float64) { matVecRows(c.w, rows, cols, c.xs, n, short(c.y0), y) }},
		{"matVecRows/y", make([]float64, n*rows), func(y []float64) { matVecRows(c.w, rows, cols, c.xs, n, c.y0, short(y)) }},
		{"outerAddRows/n=1/dw", slices.Clone(c.dw), func(dw []float64) { outerAddRows(short(dw), rows, cols, c.dy, c.x, 1) }},
		{"outerAddRows/n=1/dy", slices.Clone(c.dw), func(dw []float64) { outerAddRows(dw, rows, cols, short(c.dy), c.x, 1) }},
		{"outerAddRows/n=1/x", slices.Clone(c.dw), func(dw []float64) { outerAddRows(dw, rows, cols, c.dy, short(c.x), 1) }},
		{"outerAddRows/dw", slices.Clone(c.dw), func(dw []float64) { outerAddRows(short(dw), rows, cols, c.dys, c.xs, n) }},
		{"outerAddRows/dy", slices.Clone(c.dw), func(dw []float64) { outerAddRows(dw, rows, cols, short(c.dys), c.xs, n) }},
		{"outerAddRows/x", slices.Clone(c.dw), func(dw []float64) { outerAddRows(dw, rows, cols, c.dys, short(c.xs), n) }},
		{"expSlice/y", make([]float64, len(c.w)), func(y []float64) { expSlice(c.w, short(y)) }},
		{"logSlice/y", make([]float64, len(c.w)), func(y []float64) { logSlice(c.w, short(y)) }},
		{"sigmoidSlice/y", make([]float64, len(c.w)), func(y []float64) { sigmoidSlice(c.w, short(y)) }},
		{"tanhSlice/y", make([]float64, len(c.w)), func(y []float64) { tanhSlice(c.w, short(y)) }},
		{"log1pSlice/y", make([]float64, len(c.w)), func(y []float64) { log1pSlice(c.w, short(y)) }},
		{"matTVecAddRows/w", slices.Clone(c.xs), func(dx []float64) { matTVecAddRows(short(c.w), rows, cols, c.dys, n, dx) }},
		{"matTVecAddRows/dy", slices.Clone(c.xs), func(dx []float64) { matTVecAddRows(c.w, rows, cols, short(c.dys), n, dx) }},
		{"matTVecAddRows/dx", slices.Clone(c.xs), func(dx []float64) { matTVecAddRows(c.w, rows, cols, c.dys, n, short(dx)) }},
		{"addRows/acc", slices.Clone(c.x), func(acc []float64) { addRows(short(acc), cols, c.xs, n) }},
		{"addRows/v", slices.Clone(c.x), func(acc []float64) { addRows(acc, cols, short(c.xs), n) }},
		// The elementwise kernels: one slice sets the length, each other
		// one short panics. out is watched for writes through the
		// short view too.
		{"relu/y", make([]float64, len(c.w)), func(y []float64) { relu(c.w, short(y)) }},
		{"reluBackward/y", slices.Clone(c.dw), func(dy []float64) { reluBackward(short(c.w), dy) }},
		{"reduceZero/src", slices.Clone(c.dw), func(dst []float64) { reduceZero(dst, short(clone(c.w))) }},
		{"reduceZero/src:src", slices.Clone(c.w), func(src []float64) { reduceZero(clone(c.dw), short(src)) }},
		{"adamUpdate/g", slices.Clone(c.w), func(w []float64) { adamUpdate(w, short(clone(c.dw)), clone(c.m), clone(c.v), &coef) }},
		{"adamUpdate/m", slices.Clone(c.w), func(w []float64) { adamUpdate(w, clone(c.dw), short(clone(c.m)), clone(c.v), &coef) }},
		{"adamUpdate/v", slices.Clone(c.w), func(w []float64) { adamUpdate(w, clone(c.dw), clone(c.m), short(clone(c.v)), &coef) }},
		{"adamUpdate/g:g", slices.Clone(c.dw), func(g []float64) { adamUpdate(clone(c.w), short(g), clone(c.m), clone(c.v), &coef) }},
		{"GRU.Step/prev", make([]float64, rows), func(out []float64) { u.Step(c.x[0], short(c.y0), out) }},
		{"GRU.Step/out", make([]float64, rows), func(out []float64) { u.Step(c.x[0], c.y0, short(out)) }},
	}
	for _, k := range calls {
		t.Run(k.name, func(t *testing.T) {
			before := slices.Clone(k.out)
			defer func() {
				var re runtime.Error
				err, _ := recover().(error)
				if !errors.As(err, &re) {
					t.Fatalf("want a runtime index error, got %v", err)
				}
				if !slices.Equal(k.out, before) {
					t.Fatalf("output written before the panic: %v, was %v", k.out, before)
				}
			}()
			k.call(k.out)
		})
	}
}

// BenchmarkKernels times each kernel at the served net's shapes (GRU
// 16×1 and 16×16, fc1 24×18, fc2 24×24, a head 8×24) and at 64×64,
// through the dispatch ("asm": the assembly on an AVX CPU) and through
// the Go loop ("go"). The
// row-batched kernels run 16 input rows (a served sequence of ≈ 13
// steps plus its survival row) — matTVecAddRows at the heads', fc2's
// and fc1's shapes is backwardRows' strided tile call — exp, the
// sigmoid and tanh run over the rows×cols entries of W, and log and
// log1p over those of v, made positive as Adam's second moments are.
func BenchmarkKernels(b *testing.B) {
	type kernel struct {
		name        string
		asm, goLoop func(c *kernelCase, y []float64)
	}
	kernels := []kernel{
		{"matVec",
			func(c *kernelCase, y []float64) { matVec(c.w, c.rows, c.cols, c.x, c.y0, y) },
			func(c *kernelCase, y []float64) { matVecGo(c.w, c.rows, c.cols, c.x, c.y0, y) }},
		{"matTVecAdd",
			func(c *kernelCase, _ []float64) { matTVecAdd(c.w, c.rows, c.cols, c.dy, c.dx) },
			func(c *kernelCase, _ []float64) { matTVecAddGo(c.w, c.rows, c.cols, c.dy, c.dx) }},
		{"matVecRows",
			func(c *kernelCase, y []float64) { matVecRows(c.w, c.rows, c.cols, c.xs, c.n, c.y0, y) },
			func(c *kernelCase, y []float64) { matVecRowsGo(c.w, c.rows, c.cols, c.xs, c.n, c.y0, y) }},
		{"outerAddRows",
			func(c *kernelCase, _ []float64) { outerAddRows(c.dw, c.rows, c.cols, c.dys, c.xs, c.n) },
			func(c *kernelCase, _ []float64) { outerAddRowsGo(c.dw, c.rows, c.cols, c.dys, c.xs, c.n) }},
		{"exp",
			func(c *kernelCase, y []float64) { expSlice(c.w, y) },
			func(c *kernelCase, y []float64) { expGo(c.w, y) }},
		{"log",
			func(c *kernelCase, y []float64) { logSlice(c.v, y) },
			func(c *kernelCase, y []float64) { logGo(c.v, y) }},
		{"sigmoid",
			func(c *kernelCase, y []float64) { sigmoidSlice(c.w, y) },
			func(c *kernelCase, y []float64) { sigmoidGo(c.w, y) }},
		{"tanh",
			func(c *kernelCase, y []float64) { tanhSlice(c.w, y) },
			func(c *kernelCase, y []float64) { tanhGo(c.w, y) }},
		{"log1p",
			func(c *kernelCase, y []float64) { log1pSlice(c.v, y) },
			func(c *kernelCase, y []float64) { log1pGo(c.v, y) }},
		{"matTVecAddRows",
			func(c *kernelCase, _ []float64) { matTVecAddRows(c.w, c.rows, c.cols, c.dys, c.n, c.xs) },
			func(c *kernelCase, _ []float64) { matTVecAddRowsGo(c.w, c.rows, c.cols, c.dys, c.n, c.xs) }},
		{"addRows",
			func(c *kernelCase, _ []float64) { addRows(c.x, c.cols, c.xs, c.n) },
			func(c *kernelCase, _ []float64) { addRowsGo(c.x, c.cols, c.xs, c.n) }},
	}
	const n = 16
	for _, k := range kernels {
		for _, shape := range [][2]int{{16, 1}, {16, 16}, {24, 18}, {24, 24}, {8, 24}, {64, 64}} {
			c := newKernelCase(shape[0], shape[1], 1, fillNormal).withRows(n, 2, fillNormal)
			for i, v := range c.v {
				c.v[i] = math.Abs(v)
			}
			y := make([]float64, max(n*c.rows, len(c.w)))
			for _, impl := range []struct {
				name string
				run  func(c *kernelCase, y []float64)
			}{{"asm", k.asm}, {"go", k.goLoop}} {
				b.Run(fmt.Sprintf("%s/%dx%d/%s", k.name, c.rows, c.cols, impl.name), func(b *testing.B) {
					if impl.name == "asm" && !useAVX {
						b.Skip("no AVX on this CPU")
					}
					for i := 0; i < b.N; i++ {
						impl.run(&c, y)
					}
				})
			}
		}
	}
}
