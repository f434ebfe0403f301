package nn

import (
	"math"

	"raven/internal/stats"
)

// Config parameterizes the MDN network of Fig. 4: a GRU history
// encoder feeding a two-hidden-layer MLP whose three heads emit the
// parameters of a K-component log-normal mixture over residual time.
type Config struct {
	Hidden    int     // GRU hidden size: the history embedding is the whole recurrent state
	MLPHidden int     // width of the two MLP hidden layers
	K         int     // number of mixture components
	TimeScale float64 // ticks per normalized time unit (≈ mean interarrival)
	Seed      int64
}

// Defaults fills every zero dimension with the served network's: a
// 16-wide GRU, 24-wide MLP layers and 8 mixture components. It leaves a
// zero TimeScale alone, so a caller can still infer it from data;
// NewNet reads a zero TimeScale as 1.
func (c *Config) Defaults() {
	if c.Hidden == 0 {
		c.Hidden = 16
	}
	if c.MLPHidden == 0 {
		c.MLPHidden = 24
	}
	if c.K == 0 {
		c.K = 8
	}
}

func (c *Config) defaults() {
	c.Defaults()
	if c.TimeScale == 0 { //lint:allow float-equal zero TimeScale means unset; fill the default
		c.TimeScale = 1
	}
}

// Net is the complete mixture density network (§4.2): residual-time
// distribution conditional on object size, age, and arrival history.
type Net struct {
	Cfg Config
	// Version increments on every completed Fit; Raven uses it to
	// detect stale cached embeddings after a model swap.
	Version int

	cell                 *GRU
	fc1, fc2             *Dense
	headW, headMu, headS *Dense
	params               []*Param

	// frozen32 caches the most recent Freeze32 result; it is rebuilt
	// whenever Version moves past it. Never serialized — checkpoints
	// hold f64 weights only, and a resumed net re-freezes lazily.
	frozen32 *Frozen32

	// arena is forwardBackward's reusable scratch (train.go), built on
	// first use and private to this replica. Never serialized.
	arena *trainArena
}

// NewNet builds a freshly initialized network.
func NewNet(cfg Config) *Net {
	cfg.defaults()
	g := stats.NewRNG(cfg.Seed)
	n := &Net{Cfg: cfg}
	n.cell = NewGRU("gru", 1, cfg.Hidden, g)
	in := cfg.Hidden + 2 // embedding + size + age features
	n.fc1 = NewDense("fc1", in, cfg.MLPHidden, g)
	n.fc2 = NewDense("fc2", cfg.MLPHidden, cfg.MLPHidden, g)
	n.headW = NewDense("headW", cfg.MLPHidden, cfg.K, g)
	n.headMu = NewDense("headMu", cfg.MLPHidden, cfg.K, g)
	n.headS = NewDense("headS", cfg.MLPHidden, cfg.K, g)
	n.params = append(n.params, n.cell.Params()...)
	n.params = append(n.params, n.fc1.Params()...)
	n.params = append(n.params, n.fc2.Params()...)
	n.params = append(n.params, n.headW.Params()...)
	n.params = append(n.params, n.headMu.Params()...)
	n.params = append(n.params, n.headS.Params()...)
	// Spread initial component means so the mixture starts diverse.
	for i := 0; i < cfg.K; i++ {
		n.headMu.B.W[i] = -2 + 4*float64(i)/float64(cfg.K)
	}
	return n
}

// Params returns all learnable tensors.
func (n *Net) Params() []*Param { return n.params }

// Shadow returns a replica of n whose weights ALIAS n's backing
// arrays (updates to n's parameters — Adam steps, snapshot restores —
// are immediately visible) but whose gradient buffers, recurrent
// scratch, and MLP caches are private. One goroutine may run
// forward/backward or Predict on a shadow concurrently with other
// shadows; Fit's data-parallel workers use one shadow per slot. Only
// the original carries optimizer
// state, and Fit must be called on the original.
func (n *Net) Shadow() *Net {
	s := &Net{Cfg: n.Cfg, Version: n.Version}
	s.cell = n.cell.Shadow()
	s.fc1 = n.fc1.Shadow()
	s.fc2 = n.fc2.Shadow()
	s.headW = n.headW.Shadow()
	s.headMu = n.headMu.Shadow()
	s.headS = n.headS.Shadow()
	s.params = append(s.params, s.cell.Params()...)
	s.params = append(s.params, s.fc1.Params()...)
	s.params = append(s.params, s.fc2.Params()...)
	s.params = append(s.params, s.headW.Params()...)
	s.params = append(s.params, s.headMu.Params()...)
	s.params = append(s.params, s.headS.Params()...)
	return s
}

// zeroGrad clears every parameter's accumulated gradient.
func (n *Net) zeroGrad() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int {
	t := 0
	for _, p := range n.params {
		t += len(p.W)
	}
	return t
}

// ZeroState returns a fresh zero recurrent state: the Cfg.Hidden-wide
// history embedding of an object with no observed interarrivals.
func (n *Net) ZeroState() []float64 { return make([]float64, n.Cfg.Hidden) }

// featTau maps an interarrival time in ticks to the GRU input feature.
func (n *Net) featTau(tau float64) float64 {
	if tau < 0 {
		tau = 0
	}
	return math.Log1p(tau / n.Cfg.TimeScale)
}

func featSize(size float64) float64 { return math.Log1p(size) / 16 }

func (n *Net) featAge(age float64) float64 {
	if age < 0 {
		age = 0
	}
	return math.Log1p(age / n.Cfg.TimeScale)
}

// StepEmbed advances a history embedding in place with one observed
// interarrival time (in ticks).
func (n *Net) StepEmbed(h []float64, tau float64) {
	x := [1]float64{n.featTau(tau)}
	n.cell.Step(x[:], h, nil, h)
}

// EmbedHistory computes an embedding from scratch over a sequence of
// interarrival times.
func (n *Net) EmbedHistory(taus []float64) []float64 {
	h := n.ZeroState()
	for _, t := range taus {
		n.StepEmbed(h, t)
	}
	return h
}

// mlpCache stores one prediction's activations for backprop.
type mlpCache struct {
	in, y1, y2     []float64
	aW, aMu, aS    []float64
	dAW, dAMu, dAS []float64
}

func (n *Net) newMLPCache() *mlpCache {
	m := n.Cfg.MLPHidden
	k := n.Cfg.K
	return &mlpCache{
		in: make([]float64, n.Cfg.Hidden+2), y1: make([]float64, m), y2: make([]float64, m),
		aW: make([]float64, k), aMu: make([]float64, k), aS: make([]float64, k),
		dAW: make([]float64, k), dAMu: make([]float64, k), dAS: make([]float64, k),
	}
}

// zeroGrad clears the activation gradients the loss terms accumulate
// into, so a reused cache starts where a fresh one would.
func (c *mlpCache) zeroGrad() {
	zero(c.dAW)
	zero(c.dAMu)
	zero(c.dAS)
}

// forwardMLP computes head activations and the mixture for one
// (embedding, size, age) input; c may be reused across calls.
func (n *Net) forwardMLP(h []float64, size, age float64, c *mlpCache, out *Mixture) {
	copy(c.in, h[:n.Cfg.Hidden])
	c.in[n.Cfg.Hidden] = featSize(size)
	c.in[n.Cfg.Hidden+1] = n.featAge(age)
	n.fc1.Forward(c.in, c.y1)
	relu(c.y1, c.y1)
	n.fc2.Forward(c.y1, c.y2)
	relu(c.y2, c.y2)
	n.headW.Forward(c.y2, c.aW)
	n.headMu.Forward(c.y2, c.aMu)
	n.headS.Forward(c.y2, c.aS)
	MixtureFromActivations(c.aW, c.aMu, c.aS, out)
}

// backwardMLP backpropagates the activation gradients stored in c
// (dAW/dAMu/dAS) through the heads and MLP, accumulating parameter
// gradients and adding the embedding gradient into dh. The layer
// gradients live in ar and are zeroed here: every Dense.Backward adds.
func (n *Net) backwardMLP(ar *trainArena, c *mlpCache, dh []float64) {
	dy2, dy1, din := ar.dy2, ar.dy1, ar.din
	zero(dy2)
	zero(dy1)
	zero(din)
	// Clamp masking for the log-stddev head.
	for i, a := range c.aS {
		if a < logSClampLo || a > logSClampHi {
			c.dAS[i] = 0
		}
	}
	n.headW.Backward(c.y2, c.dAW, dy2)
	n.headMu.Backward(c.y2, c.dAMu, dy2)
	n.headS.Backward(c.y2, c.dAS, dy2)
	reluBackward(c.y2, dy2)
	n.fc2.Backward(c.y1, dy2, dy1)
	reluBackward(c.y1, dy1)
	n.fc1.Backward(c.in, dy1, din)
	axpy(1, din[:n.Cfg.Hidden], dh)
}

// PredictScratch holds reusable buffers for repeated Predict calls on
// the eviction hot path; create one per caller with NewPredictScratch.
type PredictScratch struct{ c *mlpCache }

// NewPredictScratch allocates prediction buffers sized for this net.
func (n *Net) NewPredictScratch() *PredictScratch {
	return &PredictScratch{c: n.newMLPCache()}
}

// Predict computes the residual-time mixture for an object with the
// given history embedding, size (bytes) and age (ticks). The returned
// mixture is over normalized time; scale by Cfg.TimeScale for ticks.
func (n *Net) Predict(h []float64, size, age float64, out *Mixture) {
	c := n.newMLPCache()
	n.forwardMLP(h, size, age, c, out)
}

// PredictWith is Predict using caller-owned scratch buffers,
// allocation-free after the first mixture fill.
func (n *Net) PredictWith(s *PredictScratch, h []float64, size, age float64, out *Mixture) {
	n.forwardMLP(h, size, age, s.c, out)
}

// PredictInput is one candidate of a batched prediction: the history
// embedding plus the size and age features.
type PredictInput struct {
	H         []float64
	Size, Age float64
}

// PredictBatch fills out[i] with the mixture for in[i], walking the
// shared layers once per candidate through a single scratch arena.
// Each out[i] is bit-identical to the corresponding PredictWith call;
// the batch form exists so an eviction decision amortizes the
// weight-matrix cache traffic over a chunk of candidates at once.
func (n *Net) PredictBatch(s *PredictScratch, in []PredictInput, out []Mixture) {
	for i := range in {
		n.forwardMLP(in[i].H, in[i].Size, in[i].Age, s.c, &out[i])
	}
}

// EmbedHistoryInto recomputes an embedding into dst (resized as
// needed) and returns it.
func (n *Net) EmbedHistoryInto(dst []float64, taus []float64) []float64 {
	H := n.Cfg.Hidden
	if cap(dst) < H {
		dst = make([]float64, H)
	}
	dst = dst[:H]
	zero(dst)
	for _, t := range taus {
		n.StepEmbed(dst, t)
	}
	return dst
}
