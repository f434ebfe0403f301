//go:build !amd64

package nn

// Off amd64 the kernels are the Go loops of vec.go.
const useAVX = false

func matVec(w []float64, rows, cols int, x, y0, y []float64) {
	matVecGo(w, rows, cols, x, y0, y)
}

func matTVecAdd(w []float64, rows, cols int, dy, dx []float64) {
	matTVecAddGo(w, rows, cols, dy, dx)
}

func outerAdd(dw []float64, rows, cols int, dy, x []float64) {
	outerAddGo(dw, rows, cols, dy, x)
}

func relu(x, y []float64) { reluGo(x, y) }

func reluBackward(y, dy []float64) { reluBackwardGo(y, dy) }

func reduceZero(dst []float64, srcs [][]float64) { reduceZeroGo(dst, srcs) }

func adamUpdate(w, g, m, v []float64, c *adamCoef) { adamUpdateGo(w, g, m, v, c) }

func finite(x []float64) bool { return finiteGo(x) }
