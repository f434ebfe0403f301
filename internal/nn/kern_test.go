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
// are rows×cols, x and dx have cols entries, y0 and dy have rows.
type kernelCase struct {
	rows, cols       int
	w, x, y0, dy, dx []float64
	dw, m, v         []float64
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

	got, want = slices.Clone(c.dw), slices.Clone(c.dw)
	outerAdd(got, c.rows, c.cols, c.dy, c.x)
	outerAddGo(want, c.rows, c.cols, c.dy, c.x)
	if !sameBits(got, want) {
		fail("outerAdd", got, want)
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

	// Three slots, then none.
	for _, slots := range [][][]float64{{c.w, c.m, c.v}, nil} {
		got, want = slices.Clone(c.dw), slices.Clone(c.dw)
		gotSrcs, wantSrcs := make([][]float64, len(slots)), make([][]float64, len(slots))
		for i, src := range slots {
			gotSrcs[i], wantSrcs[i] = slices.Clone(src), slices.Clone(src)
		}
		reduceZero(got, gotSrcs)
		reduceZeroGo(want, wantSrcs)
		if !sameBits(got, want) {
			fail("reduceZero/dst", got, want)
		}
		for i := range gotSrcs {
			if !sameBits(gotSrcs[i], wantSrcs[i]) {
				fail("reduceZero/src", gotSrcs[i], wantSrcs[i])
			}
		}
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
// h×1 matVec and outerAdd of a one-element input vector — on the same
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
	outerAdd(want[0], h, 1, daZ, x)
	outerAdd(want[1], h, 1, daR, x)
	outerAdd(want[2], h, 1, daH, x)
	u.inputGrads(x[0], daZ, daR, daH)
	for i, got := range [][]float64{u.Wz.G, u.Wr.G, u.Wh.G} {
		if !sameBits(got, want[i]) {
			t.Errorf("GRU inputGrads %d h=%d: scalar input and outerAdd differ\n got: %v\nwant: %v", i, h, got, want[i])
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
		checkKernels(t, newKernelCase(int(rows%80)+1, int(cols%80)+1, seed, int(fill%numFills)))
		checkGRUInput(t, int(rows%80)+1, seed, int(fill%numFills))
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
	const rows, cols = 5, 8
	c := newKernelCase(rows, cols, 1, fillNormal)
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
		{"outerAdd/dw", slices.Clone(c.dw), func(dw []float64) { outerAdd(short(dw), rows, cols, c.dy, c.x) }},
		{"outerAdd/dy", slices.Clone(c.dw), func(dw []float64) { outerAdd(dw, rows, cols, short(c.dy), c.x) }},
		{"outerAdd/x", slices.Clone(c.dw), func(dw []float64) { outerAdd(dw, rows, cols, c.dy, short(c.x)) }},
		// The elementwise kernels: one slice sets the length, each other
		// one short panics. out is watched for writes through the
		// short view too.
		{"relu/y", make([]float64, len(c.w)), func(y []float64) { relu(c.w, short(y)) }},
		{"reluBackward/y", slices.Clone(c.dw), func(dy []float64) { reluBackward(short(c.w), dy) }},
		{"reduceZero/src", slices.Clone(c.dw), func(dst []float64) {
			reduceZero(dst, [][]float64{clone(c.w), short(clone(c.m))})
		}},
		{"reduceZero/src:src", slices.Clone(c.w), func(src []float64) {
			reduceZero(clone(c.dw), [][]float64{src, short(clone(c.m))})
		}},
		{"adamUpdate/g", slices.Clone(c.w), func(w []float64) { adamUpdate(w, short(clone(c.dw)), clone(c.m), clone(c.v), &coef) }},
		{"adamUpdate/m", slices.Clone(c.w), func(w []float64) { adamUpdate(w, clone(c.dw), short(clone(c.m)), clone(c.v), &coef) }},
		{"adamUpdate/v", slices.Clone(c.w), func(w []float64) { adamUpdate(w, clone(c.dw), clone(c.m), short(clone(c.v)), &coef) }},
		{"adamUpdate/g:g", slices.Clone(c.dw), func(g []float64) { adamUpdate(clone(c.w), short(g), clone(c.m), clone(c.v), &coef) }},
		{"GRU.Step/prev", make([]float64, rows), func(out []float64) { u.Step(c.x[0], short(c.y0), nil, out) }},
		{"GRU.Step/out", make([]float64, rows), func(out []float64) { u.Step(c.x[0], c.y0, nil, short(out)) }},
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
// through the dispatch ("asm": the assembly on an AVX CPU, except
// outerAdd below 4 columns) and through the Go loop ("go").
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
		{"outerAdd",
			func(c *kernelCase, _ []float64) { outerAdd(c.dw, c.rows, c.cols, c.dy, c.x) },
			func(c *kernelCase, _ []float64) { outerAddGo(c.dw, c.rows, c.cols, c.dy, c.x) }},
	}
	for _, k := range kernels {
		for _, shape := range [][2]int{{16, 1}, {16, 16}, {24, 18}, {24, 24}, {8, 24}, {64, 64}} {
			c := newKernelCase(shape[0], shape[1], 1, fillNormal)
			y := make([]float64, c.rows)
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
