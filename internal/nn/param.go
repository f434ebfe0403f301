package nn

import (
	"math"

	"raven/internal/stats"
)

// Param is one learnable tensor: values, accumulated gradients, and
// Adam moment estimates, each a view into its network's tensors.
type Param struct {
	Name string
	W    []float64
	G    []float64
	m, v []float64
}

func newParam(name string, n int) *Param {
	return &Param{
		Name: name,
		W:    make([]float64, n),
		G:    make([]float64, n),
		m:    make([]float64, n),
		v:    make([]float64, n),
	}
}

// slab lays a network's tensors out end to end in the vectors of one
// Param, all: each tensor's W, G, m and v are views into all's, in the
// order the tensors were made, which is Params() order. Whatever runs
// over every parameter at once — the gradient fold, Adam, the
// guard's checks, a snapshot — is then one pass over one vector.
type slab struct {
	all  *Param
	used int // entries view has handed out
}

func newSlab(size int) *slab { return &slab{all: newParam("", size)} }

// shadow returns a slab that shares s's weights with a private, zeroed
// gradient vector and no moments.
func (s *slab) shadow() *slab {
	return &slab{all: &Param{W: s.all.W, G: make([]float64, len(s.all.G))}}
}

// view hands out the next size entries of every vector as one tensor.
func (s *slab) view(name string, size int) *Param {
	lo, hi := s.used, s.used+size
	s.used = hi
	a := s.all
	p := &Param{Name: name, W: a.W[lo:hi:hi], G: a.G[lo:hi:hi]}
	if a.m != nil {
		p.m, p.v = a.m[lo:hi:hi], a.v[lo:hi:hi]
	}
	return p
}

// like hands out the next entries as p's counterpart: same name and
// size. A shadow is built by calling it for the master's tensors in
// the order they were made.
func (s *slab) like(p *Param) *Param { return s.view(p.Name, len(p.W)) }

// initXavier fills W with Xavier/Glorot uniform values for a layer
// with the given fan-in and fan-out.
func (p *Param) initXavier(g *stats.RNG, fanIn, fanOut int) {
	lim := math.Sqrt(6 / float64(fanIn+fanOut))
	for i := range p.W {
		p.W[i] = g.Uniform(-lim, lim)
	}
}

// Adam is the Adam optimizer over a set of parameters.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // global gradient-norm clip; 0 disables
	t       int
	targets []*Param
}

// NewAdam returns an Adam optimizer with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8) and gradient-norm clipping at 5.
// A network passes one target, its slab's all.
func NewAdam(lr float64, params []*Param) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, targets: params}
}

// Step applies one update using the gradients accumulated in each
// parameter (scaled by invScale, typically 1/batchSize) and clears
// them. The clip norm is one serial sum in target order; the update is
// elementwise (adamUpdate).
func (a *Adam) Step(invScale float64) {
	a.t++
	if a.Clip > 0 {
		norm := 0.0
		for _, p := range a.targets {
			for _, g := range p.G {
				gg := g * invScale
				norm += gg * gg
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.Clip {
			invScale *= a.Clip / norm
		}
	}
	c := adamCoef{
		scale: invScale, b1: a.Beta1, nb1: 1 - a.Beta1, b2: a.Beta2, nb2: 1 - a.Beta2,
		c1: 1 - math.Pow(a.Beta1, float64(a.t)), c2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr: a.LR, eps: a.Eps,
	}
	for _, p := range a.targets {
		adamUpdate(p.W, p.G, p.m, p.v, &c)
	}
}
