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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func matVecAVX(w []float64, rows, cols int, x, y0, y []float64)

//go:noescape
func matTVecAddAVX(w []float64, rows, cols int, dy, dx []float64)

//go:noescape
func outerAddAVX(dw []float64, rows, cols int, dy, x []float64)
