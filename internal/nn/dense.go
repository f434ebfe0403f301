package nn

import "raven/internal/stats"

// Dense is a fully connected layer y = W*x + b.
type Dense struct {
	In, Out int
	W, B    *Param
}

// denseParams is the number of parameters of an in→out Dense layer.
func denseParams(in, out int) int { return in*out + out }

// NewDense returns a Dense layer with Xavier-initialized weights and
// tensors of its own.
func NewDense(name string, in, out int, g *stats.RNG) *Dense {
	return newDense(newSlab(denseParams(in, out)), name, in, out, g)
}

// newDense returns a Dense layer with Xavier-initialized weights, its
// tensors the next ones of s.
func newDense(s *slab, name string, in, out int, g *stats.RNG) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   s.view(name+".W", in*out),
		B:   s.view(name+".b", out),
	}
	d.W.initXavier(g, in, out)
	return d
}

// Params returns the layer's learnable tensors.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// shadow returns a layer sharing d's weights with private gradients,
// the next tensors of s (a shadow's storage).
func (d *Dense) shadow(s *slab) *Dense {
	return &Dense{In: d.In, Out: d.Out, W: s.like(d.W), B: s.like(d.B)}
}

// Forward computes y = W*x + b. len(x) must be In; len(y) must be Out.
func (d *Dense) Forward(x, y []float64) {
	matVec(d.W.W, d.Out, d.In, x, d.B.W, y)
}

// Backward accumulates parameter gradients for the stored input x and
// upstream gradient dy, and adds the input gradient into dx (which may
// be nil when the input needs no gradient).
func (d *Dense) Backward(x, dy, dx []float64) {
	outerAddRows(d.W.G, d.Out, d.In, dy, x, 1)
	addTo(dy, d.B.G)
	if dx != nil {
		matTVecAdd(d.W.W, d.Out, d.In, dy, dx)
	}
}

// forwardRows computes y_i = W*x_i + b for the n rows of x (In wide),
// into the rows of y (Out wide).
func (d *Dense) forwardRows(x []float64, n int, y []float64) {
	matVecRows(d.W.W, d.Out, d.In, x, n, d.B.W, y)
}

// backwardRows accumulates the parameter gradients of n rows, given
// their inputs x and upstream gradients dy, from the last row to the
// first. It leaves the input gradients to the caller.
func (d *Dense) backwardRows(x, dy []float64, n int) {
	outerAddRows(d.W.G, d.Out, d.In, dy, x, n)
	addRows(d.B.G, d.Out, dy, n)
}
