package nn

// useAVX selects the assembly kernels of kern_amd64.s: the CPU has AVX
// and the OS saves the YMM registers across context switches. It is
// decided once, at init.
var useAVX = hasAVX()

// useFMA picks expAVX's fused form. math.Exp takes its fused form when
// the CPU has AVX and FMA (math's useFMA), and the kernel must take the
// same one to give its bits.
var useFMA = useAVX && hasFMA()

func hasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	eax, _ := xgetbv()
	return eax&(xmmState|ymmState) == xmmState|ymmState
}

// matVec and matTVecAdd, and the row-batched matVecRows,
// matTVecAddRows, outerAddRows and addRows, are the Go loops of vec.go
// (their contracts are there), run as assembly when useAVX. Each proves
// every slice long enough, with an index expression that panics as the
// Go loop would, before the assembly touches memory. matTVecAdd,
// matTVecAddRows, outerAddRows and addRows are the one tile kernel,
// tilesAVX, over different lists of pairs.

func matVec(w []float64, rows, cols int, x, y0, y []float64) {
	if !useAVX || rows < 1 || cols < 1 {
		matVecGo(w, rows, cols, x, y0, y)
		return
	}
	_ = w[rows*cols-1]
	_ = x[cols-1]
	_ = y[rows-1]
	if y0 != nil {
		_ = y0[rows-1]
	}
	matVecAVX(w, rows, cols, x, y0, y)
}

func matTVecAdd(w []float64, rows, cols int, dy, dx []float64) {
	if !useAVX || rows < 1 || cols < 1 {
		matTVecAddGo(w, rows, cols, dy, dx)
		return
	}
	_ = w[rows*cols-1]
	_ = dy[rows-1]
	_ = dx[cols-1]
	tilesAVX(dx, 1, cols, dy, 0, 0, 1, w, 0, cols, rows)
}

// matVecRows runs the assembly over each whole group of four input
// rows, sharing every load of W across the four, and the rest one row
// at a time through matVec.
func matVecRows(w []float64, rows, cols int, x []float64, n int, y0, y []float64) {
	if !useAVX || rows < 1 || cols < 1 || n < 1 {
		matVecRowsGo(w, rows, cols, x, n, y0, y)
		return
	}
	_ = w[rows*cols-1]
	_ = x[n*cols-1]
	_ = y[n*rows-1]
	if y0 != nil {
		_ = y0[rows-1]
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		matVec4AVX(w, rows, cols, x[i*cols:(i+4)*cols], y0, y[i*rows:(i+4)*rows])
	}
	for ; i < n; i++ {
		matVecAVX(w, rows, cols, x[i*cols:(i+1)*cols], y0, y[i*rows:(i+1)*rows])
	}
}

// outerAddRows runs every row of dW through the assembly's tiles: each
// tile stays in registers while the n input rows add into it.
func outerAddRows(dw []float64, rows, cols int, dy, x []float64, n int) {
	if !useAVX || rows < 1 || cols < 1 || n < 1 {
		outerAddRowsGo(dw, rows, cols, dy, x, n)
		return
	}
	_ = dw[rows*cols-1]
	_ = dy[n*rows-1]
	_ = x[n*cols-1]
	tilesAVX(dw, rows, cols, dy, (n-1)*rows, 1, -rows, x, (n-1)*cols, -cols, n)
}

// matTVecAddRows runs each row of dx as a tile: its pairs are the rows
// of W, each scaled by that row's dy entry.
func matTVecAddRows(w []float64, rows, cols int, dy []float64, n int, dx []float64) {
	if !useAVX || rows < 1 || cols < 1 || n < 1 {
		matTVecAddRowsGo(w, rows, cols, dy, n, dx)
		return
	}
	_ = w[rows*cols-1]
	_ = dy[n*rows-1]
	_ = dx[n*cols-1]
	tilesAVX(dx, n, cols, dy, 0, rows, 1, w, 0, cols, rows)
}

// one is addRows' every d: 1·v is v, bit for bit, and 1 is never ±0, so
// the tile kernel adds every entry as addTo(v, acc) does.
var one = []float64{1}

// addRows runs acc as one tile row, the rows of v its pairs, last first.
func addRows(acc []float64, cols int, v []float64, n int) {
	if !useAVX || cols < 1 || n < 1 {
		addRowsGo(acc, cols, v, n)
		return
	}
	_ = acc[cols-1]
	_ = v[n*cols-1]
	tilesAVX(acc, 1, cols, one, 0, 0, 0, v, (n-1)*cols, -cols, n)
}

// lanes runs y_i = f(x_i) through kernel, f's assembly, and goLoop,
// its Go loop: the assembly runs the whole groups of four until one
// holds an entry outside its range (it returns the entries it wrote);
// goLoop runs that group, then the assembly resumes after it, and goLoop
// runs the tail.
func lanes(x, y []float64, kernel func(x, y []float64) int, goLoop func(x, y []float64)) {
	checkLen(y, len(x))
	i := 0
	if useAVX {
		n := len(x) &^ 3
		for i < n {
			i += kernel(x[i:n], y[i:n])
			if i < n {
				goLoop(x[i:i+4], y[i:i+4])
				i += 4
			}
		}
	}
	if i < len(x) {
		goLoop(x[i:], y[i:])
	}
}

// expSlice is expGo; its assembly takes the groups whose entries all lie
// in [expLo, expHi].
func expSlice(x, y []float64) {
	lanes(x, y, func(x, y []float64) int { return expAVX(x, y, useFMA) }, expGo)
}

// sigmoidSlice is sigmoidGo; its assembly takes the groups whose
// negated entries all lie in [expLo, expHi].
func sigmoidSlice(x, y []float64) {
	lanes(x, y, func(x, y []float64) int { return sigmoidAVX(x, y, useFMA) }, sigmoidGo)
}

// logSlice is logGo; its assembly takes the groups whose entries all lie
// in [logLo, logHi].
func logSlice(x, y []float64) { lanes(x, y, logAVX, logGo) }

// log1pSlice is log1pGo; its assembly takes the groups whose entries all
// lie in (log1pLo, log1pHi).
func log1pSlice(x, y []float64) { lanes(x, y, log1pAVX, log1pGo) }

// tanhSlice is tanhGo. Its assembly takes every whole group of four,
// the Go loop the tail.
func tanhSlice(x, y []float64) {
	checkLen(y, len(x))
	n := 0
	if useAVX {
		n = len(x) &^ 3
		tanhAVX(x[:n], y[:n], useFMA)
	}
	tanhGo(x[n:], y[n:])
}

// relu, reluBackward, reduceZero, adamUpdate and finite are the
// elementwise Go loops of vec.go, and checkLen proves every length
// first. With AVX the assembly runs every whole group of four entries
// (of sixteen in reduceZero) and the Go loop the rest.

func relu(x, y []float64) {
	checkLen(y, len(x))
	n := 0
	if useAVX {
		n = len(x) &^ 3
		reluAVX(x[:n], y[:n])
	}
	reluGo(x[n:], y[n:])
}

func reluBackward(y, dy []float64) {
	checkLen(y, len(dy))
	n := 0
	if useAVX {
		n = len(dy) &^ 3
		reluBackwardAVX(y[:n], dy[:n])
	}
	reluBackwardGo(y[n:], dy[n:])
}

func reduceZero(dst, src []float64) {
	checkLen(src, len(dst))
	n := 0
	if useAVX {
		n = len(dst) &^ 15
		reduceZeroAVX(dst[:n], src[:n])
	}
	reduceZeroGo(dst[n:], src[n:])
}

func adamUpdate(w, g, m, v []float64, c *adamCoef) {
	checkLen(g, len(w))
	checkLen(m, len(w))
	checkLen(v, len(w))
	n := 0
	if useAVX {
		n = len(w) &^ 3
		adamUpdateAVX(w[:n], g[:n], m[:n], v[:n], c)
	}
	adamUpdateGo(w[n:], g[n:], m[n:], v[n:], c)
}

func finite(x []float64) bool {
	n := 0
	if useAVX {
		n = len(x) &^ 3
		if !finiteAVX(x[:n]) {
			return false
		}
	}
	return finiteGo(x[n:])
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func matVecAVX(w []float64, rows, cols int, x, y0, y []float64)

//go:noescape
func matVec4AVX(w []float64, rows, cols int, x, y0, y []float64)

//go:noescape
func tilesAVX(acc []float64, rows, cols int, d []float64, dStart, dRow, dStep int, v []float64, vStart, vStep, pairs int)

//go:noescape
func expAVX(x, y []float64, fma bool) int

//go:noescape
func sigmoidAVX(x, y []float64, fma bool) int

//go:noescape
func tanhAVX(x, y []float64, fma bool)

//go:noescape
func logAVX(x, y []float64) int

//go:noescape
func log1pAVX(x, y []float64) int

//go:noescape
func reluAVX(x, y []float64)

//go:noescape
func reluBackwardAVX(y, dy []float64)

//go:noescape
func reduceZeroAVX(dst, src []float64)

//go:noescape
func adamUpdateAVX(w, g, m, v []float64, c *adamCoef)

//go:noescape
func finiteAVX(x []float64) bool
