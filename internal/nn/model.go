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

	// fit is the training scratch the last Fit left for the next
	// (fitScratch); nil until the first Fit, and never serialized.
	fit *fitScratch

	// frozen32 caches the most recent Freeze32 result; it is rebuilt
	// whenever Version moves past it. Never serialized — checkpoints
	// hold f64 weights only, and a resumed net re-freezes lazily.
	frozen32 *Frozen32
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
// are immediately visible) but whose gradient buffers and recurrent
// scratch are private: one gradient vector in Params() order, zeroed.
// Fit's gradient replica is a shadow. Only the original carries
// optimizer state, and Fit must be called on the original.
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

// Clone returns a deep copy of n: its configuration, Version, weights
// and Adam moments, with a zeroed gradient and neither fit scratch nor
// frozen copy. A Fit of the clone computes what the same Fit of n would
// and leaves n as it was, so one goroutine may train the clone while
// others predict with n.
func (n *Net) Clone() *Net {
	c := NewNet(n.Cfg)
	c.Version = n.Version
	copy(c.all.W, n.all.W)
	copy(c.all.m, n.all.m)
	copy(c.all.v, n.all.v)
	return c
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int { return len(n.all.W) }

// ZeroState returns a fresh zero recurrent state: the Cfg.Hidden-wide
// history embedding of an object with no observed interarrivals.
func (n *Net) ZeroState() []float64 { return make([]float64, n.Cfg.Hidden) }

// timeArg is the log1p argument of a time feature: the GRU input (an
// interarrival time) and the age feature both take a time in ticks,
// floored at 0, in units of TimeScale, as log1p(t/TimeScale).
func (n *Net) timeArg(t float64) float64 {
	if t < 0 {
		t = 0
	}
	return t / n.Cfg.TimeScale
}

func featSize(size float64) float64 { return math.Log1p(size) / 16 }

// StepEmbed advances a history embedding in place with one observed
// interarrival time (in ticks).
func (n *Net) StepEmbed(h []float64, tau float64) {
	n.cell.Step(math.Log1p(n.timeArg(tau)), h, h)
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

// backwardRows backpropagates the gradients on a's head activations
// (dAW/dAMu/dAS) through the heads and the MLP for its first rows rows.
// Each layer's parameter gradients are summed over the rows last to
// first, the order backpropagation through time visits them; its input
// gradient runs over every row in one tile call per weight matrix
// (matTVecAddRows), then one reluBackward masks the block. The heads'
// input gradient goes to a.dy2; the later ones replace what nothing
// reads again: y2 becomes fc2's input gradient, and in the gradient on
// the MLP input, whose first Hidden entries are the gradient on the
// embedding.
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
	dy2 := a.dy2[:rows*m]
	zero(dy2)
	matTVecAddRows(n.headW.W.W, k, m, dAW, rows, dy2)
	matTVecAddRows(n.headMu.W.W, k, m, dAMu, rows, dy2)
	matTVecAddRows(n.headS.W.W, k, m, dAS, rows, dy2)
	reluBackward(y2, dy2)
	n.fc2.backwardRows(y1, dy2, rows)
	dy1 := y2
	zero(dy1)
	matTVecAddRows(n.fc2.W.W, m, m, dy2, rows, dy1)
	reluBackward(y1, dy1)
	n.fc1.backwardRows(in, dy1, rows)
	zero(in)
	matTVecAddRows(n.fc1.W.W, m, H2, dy1, rows, in)
}

// PredictScratch holds reusable buffers for repeated PredictBatch
// calls on the request and eviction paths; create one per caller with
// NewPredictScratch. PredictBatch grows it to its largest batch.
type PredictScratch struct {
	b    mlpRows
	feat []float64 // the batch's sizes, then ages, as log1p arguments
	e    []float64 // the batch's shifted softmax activations, then log-deviations, as exp arguments
}

// NewPredictScratch allocates prediction buffers sized for this net.
func (n *Net) NewPredictScratch() *PredictScratch {
	return &PredictScratch{b: n.newMLPRows(1), feat: make([]float64, 2), e: make([]float64, 2*n.Cfg.K)}
}

// PredictInput is one candidate of a batched prediction: the history
// embedding plus the size and age features.
type PredictInput struct {
	H         []float64
	Size, Age float64
}

// PredictBatch fills out[i] with the residual-time mixture for in[i]
// (the history embedding, size in bytes and age in ticks), over
// normalized time: scale by Cfg.TimeScale for ticks. The size and age
// features' log1ps run as one pass, then each layer once over the whole
// chunk (forwardRows), so every weight is loaded once per four
// candidates, then every mixture's exps as one pass. Each out[i] has
// the bits of in[i] predicted as a batch of one, and the call is
// allocation-free once s and the mixtures have grown.
func (n *Net) PredictBatch(s *PredictScratch, in []PredictInput, out []Mixture) {
	c, k := len(in), n.Cfg.K
	if s.b.rows(n) < c {
		s.b = n.newMLPRows(c)
		s.feat = make([]float64, 2*c)
		s.e = make([]float64, 2*c*k)
	}
	feat := s.feat[:2*c]
	for i := range in {
		feat[i] = in[i].Size
		feat[c+i] = n.timeArg(in[i].Age)
	}
	log1pSlice(feat, feat)
	for i := range in {
		n.setInput(&s.b, i, in[i].H, feat[i]/16, feat[c+i])
	}
	n.forwardRows(&s.b, c)
	row := func(v []float64, i int) []float64 { return v[i*k : (i+1)*k] }
	e := s.e[:2*c*k]
	ew, es := e[:c*k], e[c*k:]
	for i := range in {
		expArgs(row(s.b.aW, i), row(s.b.aS, i), row(ew, i), row(es, i))
	}
	expSlice(e, e)
	for i := range in {
		o := &out[i]
		o.sized(k)
		normalize(row(ew, i), o.W)
		copy(o.Mu, row(s.b.aMu, i))
		copy(o.S, row(es, i))
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
