// Package parrot implements a Parrot-style imitation-learning policy
// (Liu et al., ICML '20): a neural scorer trained to imitate Belady's
// eviction choices. Like the original it requires unit-size objects
// and offline access to the optimal decisions — here provided by the
// oracle Request.Next annotation during a teacher phase, after which
// the frozen learned scorer drives evictions. The published system
// uses a transformer over access history and DAgger; this version
// imitates with an MLP over per-candidate features, which preserves
// the property the paper leans on in §2.3/§3.5: imitating sample-path
// specific decisions generalizes worse than learning distributions.
package parrot

import (
	"math"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
	"raven/internal/trace"
)

const (
	numTaus     = 4
	numFeatures = numTaus + 3 // taus | age | freq | residency
	hidden      = 24
	// sampleN candidates are scored per eviction: the original scores
	// the full cache; sampling keeps evictions O(1).
	sampleN      = 32
	learningRate = 3e-3
)

// Config controls a Parrot policy.
type Config struct {
	// TeacherEpisodes is how many evictions are made (and recorded) by
	// the Belady teacher before the imitator is trained (default 2000).
	TeacherEpisodes int
	Epochs          int // imitation epochs (default 8)
	Seed            int64
}

func (c *Config) defaults() {
	if c.TeacherEpisodes == 0 {
		c.TeacherEpisodes = 2000
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
}

type meta struct {
	lastAccess int64
	admitTime  int64
	freq       int64
	taus       [numTaus]float64
	next       int64 // oracle next arrival (teacher phase only)
}

type episode struct {
	feats [][]float64
	label int
}

// Parrot is the policy.
type Parrot struct {
	cfg Config
	rng *stats.RNG
	set *cache.SampledSet[meta]
	scr []int
	now int64

	episodes []episode
	fc1, fc2 *nn.Dense
	trained  bool
}

// New returns a Parrot policy.
func New(cfg Config) *Parrot {
	cfg.defaults()
	g := stats.NewRNG(cfg.Seed)
	return &Parrot{
		cfg: cfg,
		rng: stats.NewRNG(cfg.Seed + 1),
		set: cache.NewSampledSet[meta](),
		fc1: nn.NewDense("parrot.fc1", numFeatures, hidden, g),
		fc2: nn.NewDense("parrot.fc2", hidden, 1, g),
	}
}

// Name implements cache.Policy.
func (p *Parrot) Name() string { return "parrot" }

// Trained reports whether the imitator has been fit.
func (p *Parrot) Trained() bool { return p.trained }

func (p *Parrot) touch(req cache.Request) {
	p.now = req.Time
	if m := p.set.Ref(req.Key); m != nil {
		tau := float64(req.Time - m.lastAccess)
		copy(m.taus[1:], m.taus[:numTaus-1])
		m.taus[0] = tau
		m.lastAccess = req.Time
		m.freq++
		m.next = req.Next
	}
}

// OnHit implements cache.Policy.
func (p *Parrot) OnHit(req cache.Request) { p.touch(req) }

// OnMiss implements cache.Policy.
func (p *Parrot) OnMiss(req cache.Request) { p.now = req.Time }

// OnAdmit implements cache.Policy.
func (p *Parrot) OnAdmit(req cache.Request) {
	p.set.Add(req.Key, meta{
		lastAccess: req.Time,
		admitTime:  req.Time,
		freq:       1,
		next:       req.Next,
	})
}

// OnEvict implements cache.Policy.
func (p *Parrot) OnEvict(key cache.Key) { p.set.Remove(key) }

func (p *Parrot) features(m *meta) []float64 {
	f := make([]float64, numFeatures)
	for i := 0; i < numTaus; i++ {
		f[i] = math.Log1p(m.taus[i])
	}
	f[numTaus] = math.Log1p(float64(p.now - m.lastAccess))
	f[numTaus+1] = math.Log1p(float64(m.freq))
	f[numTaus+2] = math.Log1p(float64(p.now - m.admitTime))
	return f
}

func (p *Parrot) score(f []float64) float64 {
	h := make([]float64, hidden)
	p.fc1.Forward(f, h)
	for i, v := range h {
		if v < 0 {
			h[i] = 0
		}
	}
	out := make([]float64, 1)
	p.fc2.Forward(h, out)
	return out[0]
}

// Victim implements cache.Policy. During the teacher phase it follows
// Belady via the oracle annotation and records imitation episodes;
// afterwards the learned scorer picks the victim.
func (p *Parrot) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	p.scr = p.set.Sample(p.rng, sampleN, p.scr)
	if !p.trained {
		// Teacher: farthest true next arrival.
		bestJ := 0
		var bestNext int64 = math.MinInt64
		feats := make([][]float64, 0, len(p.scr))
		keys := make([]cache.Key, 0, len(p.scr))
		for j, i := range p.scr {
			k, m := p.set.At(i)
			next := m.next
			if next == 0 || next == trace.NoNext {
				next = math.MaxInt64
			}
			if next > bestNext {
				bestNext = next
				bestJ = j
			}
			feats = append(feats, p.features(m))
			keys = append(keys, k)
		}
		p.episodes = append(p.episodes, episode{feats: feats, label: bestJ})
		if len(p.episodes) >= p.cfg.TeacherEpisodes {
			p.train()
		}
		return keys[bestJ], true
	}
	var victim cache.Key
	best := math.Inf(-1)
	for _, i := range p.scr {
		k, m := p.set.At(i)
		if s := p.score(p.features(m)); s > best {
			best = s
			victim = k
		}
	}
	return victim, true
}

// train fits the scorer with softmax cross-entropy over each episode's
// candidates against the teacher's choice.
func (p *Parrot) train() {
	params := append(p.fc1.Params(), p.fc2.Params()...)
	opt := nn.NewAdam(learningRate, params)
	order := make([]int, len(p.episodes))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < p.cfg.Epochs; e++ {
		p.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, ei := range order {
			ep := &p.episodes[ei]
			n := len(ep.feats)
			scores := make([]float64, n)
			hs := make([][]float64, n)
			for j, f := range ep.feats {
				h := make([]float64, hidden)
				p.fc1.Forward(f, h)
				for i, v := range h {
					if v < 0 {
						h[i] = 0
					}
				}
				hs[j] = h
				out := make([]float64, 1)
				p.fc2.Forward(h, out)
				scores[j] = out[0]
			}
			// Softmax cross-entropy gradient: p_j - 1{j=label}.
			maxS := math.Inf(-1)
			for _, s := range scores {
				if s > maxS {
					maxS = s
				}
			}
			sum := 0.0
			probs := make([]float64, n)
			for j, s := range scores {
				probs[j] = math.Exp(s - maxS)
				sum += probs[j]
			}
			for j := range probs {
				probs[j] /= sum
			}
			for j := range probs {
				g := probs[j]
				if j == ep.label {
					g -= 1
				}
				dout := []float64{g}
				dh := make([]float64, hidden)
				p.fc2.Backward(hs[j], dout, dh)
				for i := range dh {
					if hs[j][i] <= 0 {
						dh[i] = 0
					}
				}
				p.fc1.Backward(ep.feats[j], dh, nil)
			}
			opt.Step(1)
		}
	}
	p.trained = true
	p.episodes = nil
}
