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

func matVecRows(w []float64, rows, cols int, x []float64, n int, y0, y []float64) {
	matVecRowsGo(w, rows, cols, x, n, y0, y)
}

func outerAddRows(dw []float64, rows, cols int, dy, x []float64, n int) {
	outerAddRowsGo(dw, rows, cols, dy, x, n)
}

func matTVecAddRows(w []float64, rows, cols int, dy []float64, n int, dx []float64) {
	matTVecAddRowsGo(w, rows, cols, dy, n, dx)
}

func addRows(acc []float64, cols int, v []float64, n int) { addRowsGo(acc, cols, v, n) }

func expSlice(x, y []float64) { expGo(x, y) }

func sigmoidSlice(x, y []float64) { sigmoidGo(x, y) }

func tanhSlice(x, y []float64) { tanhGo(x, y) }

func log1pSlice(x, y []float64) { log1pGo(x, y) }

func logSlice(x, y []float64) { logGo(x, y) }

func relu(x, y []float64) { reluGo(x, y) }

func reluBackward(y, dy []float64) { reluBackwardGo(y, dy) }

func reduceZero(dst, src []float64) { reduceZeroGo(dst, src) }

func adamUpdate(w, g, m, v []float64, c *adamCoef) { adamUpdateGo(w, g, m, v, c) }

func finite(x []float64) bool { return finiteGo(x) }
