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
