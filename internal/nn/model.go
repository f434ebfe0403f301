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
	// all holds every tensor of params end to end, as the one Param
	// the slab carved them from (param.go); a shadow's shares the
	// master's weights.
	all *Param

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
	s := newSlab(cfg.numParams())
	n := &Net{Cfg: cfg, all: s.all}
	n.cell = newGRU(s, "gru", cfg.Hidden, g)
	in := cfg.Hidden + 2 // embedding + size + age features
	n.fc1 = newDense(s, "fc1", in, cfg.MLPHidden, g)
	n.fc2 = newDense(s, "fc2", cfg.MLPHidden, cfg.MLPHidden, g)
	n.headW = newDense(s, "headW", cfg.MLPHidden, cfg.K, g)
	n.headMu = newDense(s, "headMu", cfg.MLPHidden, cfg.K, g)
	n.headS = newDense(s, "headS", cfg.MLPHidden, cfg.K, g)
	n.collectParams()
	// Spread initial component means so the mixture starts diverse.
	for i := 0; i < cfg.K; i++ {
		n.headMu.B.W[i] = -2 + 4*float64(i)/float64(cfg.K)
	}
	return n
}

// numParams is the number of parameters of the network c describes:
// the GRU over one input feature, the MLP over the embedding plus the
// size and age features, and the three heads.
func (c Config) numParams() int {
	H, M, K := c.Hidden, c.MLPHidden, c.K
	return gruParams(H) + denseParams(H+2, M) + denseParams(M, M) + 3*denseParams(M, K)
}

// collectParams lists the layers' tensors in the order they were made,
// which is their order in n.all.
func (n *Net) collectParams() {
	n.params = append(n.params, n.cell.Params()...)
	n.params = append(n.params, n.fc1.Params()...)
	n.params = append(n.params, n.fc2.Params()...)
	n.params = append(n.params, n.headW.Params()...)
	n.params = append(n.params, n.headMu.Params()...)
	n.params = append(n.params, n.headS.Params()...)
}

// Params returns all learnable tensors.
func (n *Net) Params() []*Param { return n.params }

// Shadow returns a replica of n whose weights ALIAS n's backing
// arrays (updates to n's parameters — Adam steps, snapshot restores —
// are immediately visible) but whose gradient buffers, recurrent
// scratch, and MLP caches are private: one gradient vector in
// Params() order, zeroed. One goroutine may run forward/backward or
// PredictWith on a shadow concurrently with other shadows; Fit's
// data-parallel workers use one shadow per slot. Only the original
// carries optimizer state, and Fit must be called on the original.
func (n *Net) Shadow() *Net {
	sl := (&slab{all: n.all}).shadow()
	s := &Net{Cfg: n.Cfg, Version: n.Version, all: sl.all}
	s.cell = n.cell.shadow(sl)
	s.fc1 = n.fc1.shadow(sl)
	s.fc2 = n.fc2.shadow(sl)
	s.headW = n.headW.shadow(sl)
	s.headMu = n.headMu.shadow(sl)
	s.headS = n.headS.shadow(sl)
	s.collectParams()
	return s
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int { return len(n.all.W) }

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
	n.cell.Step(n.featTau(tau), h, nil, h)
}

// mlpRows holds the MLP's activations for a batch of inputs, one row
// per input in each row-major matrix: in is the input (the history
// embedding, then the size and age features: Hidden+2 wide), y1 and y2
// the hidden layers after their ReLU (MLPHidden wide), and aW, aMu, aS
// the heads' raw activations (K wide). Run over all rows at once
// (forwardRows), a layer loads each weight once per four rows
// (matVecRows).
type mlpRows struct {
	in, y1, y2  []float64
	aW, aMu, aS []float64
}

// newMLPRows returns buffers for rows inputs.
func (n *Net) newMLPRows(rows int) mlpRows {
	m, k := n.Cfg.MLPHidden, n.Cfg.K
	return mlpRows{
		in: make([]float64, rows*(n.Cfg.Hidden+2)), y1: make([]float64, rows*m), y2: make([]float64, rows*m),
		aW: make([]float64, rows*k), aMu: make([]float64, rows*k), aS: make([]float64, rows*k),
	}
}

// rows returns how many inputs b holds.
func (b *mlpRows) rows(n *Net) int { return len(b.aW) / n.Cfg.K }

// setInput writes input row i: the embedding h, then the size and age
// features.
func (n *Net) setInput(b *mlpRows, i int, h []float64, fSize, fAge float64) {
	H := n.Cfg.Hidden
	in := b.in[i*(H+2) : (i+1)*(H+2)]
	copy(in, h[:H])
	in[H] = fSize
	in[H+1] = fAge
}

// forwardRows runs the MLP over b's first rows inputs, layer by layer.
// Each row's activations have the bits a one-row pass gives them.
func (n *Net) forwardRows(b *mlpRows, rows int) {
	m, k := n.Cfg.MLPHidden, n.Cfg.K
	y1, y2 := b.y1[:rows*m], b.y2[:rows*m]
	n.fc1.forwardRows(b.in[:rows*(n.Cfg.Hidden+2)], rows, y1)
	relu(y1, y1)
	n.fc2.forwardRows(y1, rows, y2)
	relu(y2, y2)
	n.headW.forwardRows(y2, rows, b.aW[:rows*k])
	n.headMu.forwardRows(y2, rows, b.aMu[:rows*k])
	n.headS.forwardRows(y2, rows, b.aS[:rows*k])
}

// mixture fills out with row i's mixture.
func (n *Net) mixture(b *mlpRows, i int, out *Mixture) {
	k := n.Cfg.K
	MixtureFromActivations(b.aW[i*k:(i+1)*k], b.aMu[i*k:(i+1)*k], b.aS[i*k:(i+1)*k], out)
}

// backwardRows backpropagates the gradients on a's head activations
// (dAW/dAMu/dAS) through the heads and the MLP for its first rows rows.
// The parameter gradients are summed over the rows last to first, the
// order backpropagation through time visits them. Each layer's input
// gradient replaces that input, which nothing reads again: y2 becomes
// dy2, y1 dy1, and in the gradient on the input, whose first Hidden
// entries are the gradient on the embedding.
func (n *Net) backwardRows(a *trainArena, rows int) {
	H2, m, k := n.Cfg.Hidden+2, n.Cfg.MLPHidden, n.Cfg.K
	b := &a.mlp
	in, y1, y2 := b.in[:rows*H2], b.y1[:rows*m], b.y2[:rows*m]
	dAW, dAMu, dAS := a.dAW[:rows*k], a.dAMu[:rows*k], a.dAS[:rows*k]
	// Clamp masking for the log-stddev head.
	for i, v := range b.aS[:rows*k] {
		if v < logSClampLo || v > logSClampHi {
			dAS[i] = 0
		}
	}
	n.headW.backwardRows(y2, dAW, rows)
	n.headMu.backwardRows(y2, dAMu, rows)
	n.headS.backwardRows(y2, dAS, rows)
	// dx is one row's input gradient, zeroed first: matTVecAdd adds.
	dx := a.dx[:m]
	for i := 0; i < rows; i++ {
		zero(dx)
		matTVecAdd(n.headW.W.W, k, m, dAW[i*k:(i+1)*k], dx)
		matTVecAdd(n.headMu.W.W, k, m, dAMu[i*k:(i+1)*k], dx)
		matTVecAdd(n.headS.W.W, k, m, dAS[i*k:(i+1)*k], dx)
		y := y2[i*m : (i+1)*m]
		reluBackward(y, dx)
		copy(y, dx)
	}
	n.fc2.backwardRows(y1, y2, rows)
	for i := 0; i < rows; i++ {
		zero(dx)
		matTVecAdd(n.fc2.W.W, m, m, y2[i*m:(i+1)*m], dx)
		y := y1[i*m : (i+1)*m]
		reluBackward(y, dx)
		copy(y, dx)
	}
	n.fc1.backwardRows(in, y1, rows)
	dx = a.dx[:H2]
	for i := 0; i < rows; i++ {
		zero(dx)
		matTVecAdd(n.fc1.W.W, m, H2, y1[i*m:(i+1)*m], dx)
		copy(in[i*H2:(i+1)*H2], dx)
	}
}

// PredictScratch holds reusable buffers for repeated PredictWith and
// PredictBatch calls on the eviction hot path; create one per caller
// with NewPredictScratch. PredictBatch grows it to its largest batch.
type PredictScratch struct{ b mlpRows }

// NewPredictScratch allocates prediction buffers sized for this net.
func (n *Net) NewPredictScratch() *PredictScratch {
	return &PredictScratch{b: n.newMLPRows(1)}
}

// PredictWith computes the residual-time mixture for an object with
// the given history embedding, size (bytes) and age (ticks) in
// caller-owned scratch, allocation-free after the first mixture fill.
// The returned mixture is over normalized time; scale by Cfg.TimeScale
// for ticks.
func (n *Net) PredictWith(s *PredictScratch, h []float64, size, age float64, out *Mixture) {
	n.setInput(&s.b, 0, h, featSize(size), n.featAge(age))
	n.forwardRows(&s.b, 1)
	n.mixture(&s.b, 0, out)
}

// PredictInput is one candidate of a batched prediction: the history
// embedding plus the size and age features.
type PredictInput struct {
	H         []float64
	Size, Age float64
}

// PredictBatch fills out[i] with the mixture for in[i], running each
// layer once over the whole chunk (forwardRows), so every weight is
// loaded once per four candidates. Each out[i] is bit-identical to the
// corresponding PredictWith call.
func (n *Net) PredictBatch(s *PredictScratch, in []PredictInput, out []Mixture) {
	if s.b.rows(n) < len(in) {
		s.b = n.newMLPRows(len(in))
	}
	for i := range in {
		n.setInput(&s.b, i, in[i].H, featSize(in[i].Size), n.featAge(in[i].Age))
	}
	n.forwardRows(&s.b, len(in))
	for i := range in {
		n.mixture(&s.b, i, &out[i])
	}
}

// EmbedHistoryInto computes an embedding from scratch over a sequence
// of interarrival times into dst (resized as needed) and returns it.
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
