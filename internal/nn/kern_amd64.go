package nn

// useAVX selects the assembly kernels of kern_amd64.s: the CPU has AVX
// and the OS saves the YMM registers across context switches. It is
// decided once, at init.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	eax, _ := xgetbv()
	return eax&(xmmState|ymmState) == xmmState|ymmState
}

// matVec, matTVecAdd and outerAdd are the Go loops of vec.go (their
// contracts are there), run as assembly when useAVX. Each proves every
// slice long enough, with an index expression that panics as the Go
// loop would, before the assembly touches memory.

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
	matTVecAddAVX(w, rows, cols, dy, dx)
}

// outerAdd keeps the Go loop below one 4-wide lane group: there the
// assembly runs only its scalar tail, which per row costs what the Go
// loop does (16×1, the GRU's input weights: 51 vs 46 ns on a Xeon).
// matVec and matTVecAdd gain even at one column (33 vs 74 and 21 vs
// 50 ns), from their 4-row and register-held blocks.
func outerAdd(dw []float64, rows, cols int, dy, x []float64) {
	if !useAVX || rows < 1 || cols < 4 {
		outerAddGo(dw, rows, cols, dy, x)
		return
	}
	_ = dw[rows*cols-1]
	_ = dy[rows-1]
	_ = x[cols-1]
	outerAddAVX(dw, rows, cols, dy, x)
}

// relu, reluBackward, reduceZero, adamUpdate and finite are the
// elementwise Go loops of vec.go, and checkLen proves every length
// first. With AVX the assembly runs every whole group of four entries
// and the Go loop the rest, except in reduceZero.

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

// reduceZero's assembly runs every entry, the tail included: it takes
// each entry through every slot in turn, so the master's entries stay
// in registers while the slots are added in order.
func reduceZero(dst []float64, srcs [][]float64) {
	if !useAVX {
		reduceZeroGo(dst, srcs)
		return
	}
	for _, src := range srcs {
		checkLen(src, len(dst))
	}
	reduceZeroAVX(dst, srcs)
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
func matTVecAddAVX(w []float64, rows, cols int, dy, dx []float64)

//go:noescape
func outerAddAVX(dw []float64, rows, cols int, dy, x []float64)

//go:noescape
func reluAVX(x, y []float64)

//go:noescape
func reluBackwardAVX(y, dy []float64)

//go:noescape
func reduceZeroAVX(dst []float64, srcs [][]float64)

//go:noescape
func adamUpdateAVX(w, g, m, v []float64, c *adamCoef)

//go:noescape
func finiteAVX(x []float64) bool
