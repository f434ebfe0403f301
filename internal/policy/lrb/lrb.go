// Package lrb implements LRB (Song et al., NSDI '20): learning relaxed
// Belady for CDN caching. A gradient boosting machine regresses the
// log time-to-next-request of objects from hand-crafted features (past
// interarrival deltas, exponentially decayed counters, age, size);
// eviction samples 64 candidates and removes the one with the farthest
// predicted next arrival. Labels beyond the "Belady boundary" — the
// memory-window length — are clamped to twice the boundary, the
// original's relaxation.
package lrb

import (
	"math"
	"sort"

	"raven/internal/cache"
	"raven/internal/ml/gbm"
	"raven/internal/stats"
)

const (
	numDeltas = 8 // past interarrival deltas used as features
	numEDCs   = 4 // exponentially decayed counters
	// feature layout: deltas | EDCs | age | size
	numFeatures = numDeltas + numEDCs + 2
	sampleN     = 64 // eviction candidates sampled per decision
)

// Config controls an LRB policy.
type Config struct {
	// MemoryWindow is the Belady boundary in ticks: objects predicted
	// to be re-requested beyond it are considered equivalent eviction
	// candidates. It also sets the retraining cadence.
	MemoryWindow int64
	// MaxTrainSamples bounds the training buffer (default 30000).
	MaxTrainSamples int
	Seed            int64
}

func (c *Config) defaults() {
	if c.MaxTrainSamples == 0 {
		c.MaxTrainSamples = 30000
	}
}

// history is per-object feature state, maintained for every object
// seen in the current memory window (cached or not), as in the
// original's metadata store.
type history struct {
	lastAccess int64
	deltas     [numDeltas]float64 // most recent first
	edcs       [numEDCs]float64
	size       int64
	// pending training sample: features captured at the previous
	// request, waiting for this object's next arrival as its label.
	pendingFeat []float64
	pendingTime int64
}

// LRB is the policy.
type LRB struct {
	cfg Config
	rng *stats.RNG

	hist    map[cache.Key]*history
	set     *cache.SampledSet[struct{}]
	scratch []int

	model     *gbm.Model
	trainX    [][]float64
	trainY    []float64
	lastTrain int64
	now       int64
	begun     bool

	// Trainings counts completed model fits (overhead reporting).
	Trainings int
}

// New returns an LRB policy; cfg.MemoryWindow must be positive.
func New(cfg Config) *LRB {
	cfg.defaults()
	if cfg.MemoryWindow <= 0 {
		panic("lrb: Config.MemoryWindow must be positive")
	}
	return &LRB{
		cfg:  cfg,
		rng:  stats.NewRNG(cfg.Seed),
		hist: make(map[cache.Key]*history),
		set:  cache.NewSampledSet[struct{}](),
	}
}

// Name implements cache.Policy.
func (p *LRB) Name() string { return "lrb" }

func (p *LRB) features(h *history, now int64) []float64 {
	f := make([]float64, numFeatures)
	for i := 0; i < numDeltas; i++ {
		f[i] = math.Log1p(h.deltas[i])
	}
	for i := 0; i < numEDCs; i++ {
		f[numDeltas+i] = h.edcs[i]
	}
	f[numDeltas+numEDCs] = math.Log1p(float64(now - h.lastAccess))
	f[numDeltas+numEDCs+1] = math.Log1p(float64(h.size))
	return f
}

func (p *LRB) observe(req cache.Request) {
	if !p.begun {
		p.begun = true
		p.lastTrain = req.Time
	}
	p.now = req.Time
	h, ok := p.hist[req.Key]
	if !ok {
		h = &history{lastAccess: req.Time, size: req.Size}
		p.hist[req.Key] = h
	} else {
		tau := float64(req.Time - h.lastAccess)
		// Resolve the pending training sample with its true label.
		if h.pendingFeat != nil {
			p.addSample(h.pendingFeat, float64(req.Time-h.pendingTime))
			h.pendingFeat = nil
		}
		copy(h.deltas[1:], h.deltas[:numDeltas-1])
		h.deltas[0] = tau
		for i := 0; i < numEDCs; i++ {
			half := float64(int64(1) << (uint(2*i + 8))) // growing half-lives
			h.edcs[i] = 1 + h.edcs[i]*math.Exp2(-tau/half)
		}
		h.lastAccess = req.Time
	}
	// Capture a new pending sample at this request.
	h.pendingFeat = p.features(h, req.Time)
	h.pendingTime = req.Time

	if req.Time-p.lastTrain >= p.cfg.MemoryWindow {
		p.train()
		p.lastTrain = req.Time
	}
}

func (p *LRB) addSample(feat []float64, label float64) {
	boundary := float64(p.cfg.MemoryWindow)
	if label > boundary {
		label = 2 * boundary // relaxed Belady clamp
	}
	if label < 1 {
		label = 1
	}
	y := math.Log1p(label)
	if len(p.trainX) < p.cfg.MaxTrainSamples {
		p.trainX = append(p.trainX, feat)
		p.trainY = append(p.trainY, y)
		return
	}
	i := p.rng.Intn(len(p.trainX)) // reservoir-style replacement
	p.trainX[i] = feat
	p.trainY[i] = y
}

// train fits a fresh GBM on the buffered samples. Objects whose next
// arrival never came are labelled beyond the boundary first, visited
// in sorted key order so training is deterministic.
func (p *LRB) train() {
	keys := make([]cache.Key, 0, len(p.hist))
	for k := range p.hist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		h := p.hist[k]
		if h.pendingFeat != nil && p.now-h.pendingTime >= p.cfg.MemoryWindow {
			p.addSample(h.pendingFeat, float64(p.now-h.pendingTime))
			h.pendingFeat = nil
		}
	}
	if len(p.trainX) < 200 {
		return
	}
	// gbm's defaults; each fit draws from its own seed.
	p.model = gbm.Train(p.trainX, p.trainY, gbm.Config{Seed: p.cfg.Seed + 1 + int64(p.Trainings)})
	p.Trainings++
	// Drop stale per-object metadata outside the memory window.
	for k, h := range p.hist {
		if p.now-h.lastAccess > 2*p.cfg.MemoryWindow && !p.resident(k) {
			delete(p.hist, k)
		}
	}
}

func (p *LRB) resident(k cache.Key) bool {
	_, ok := p.set.Get(k)
	return ok
}

// OnHit implements cache.Policy.
func (p *LRB) OnHit(req cache.Request) { p.observe(req) }

// OnMiss implements cache.Policy.
func (p *LRB) OnMiss(req cache.Request) { p.observe(req) }

// OnAdmit implements cache.Policy.
func (p *LRB) OnAdmit(req cache.Request) { p.set.Add(req.Key, struct{}{}) }

// OnEvict implements cache.Policy.
func (p *LRB) OnEvict(key cache.Key) { p.set.Remove(key) }

// Victim implements cache.Policy: farthest predicted next arrival
// among 64 sampled candidates; LRU over last-access before the first
// model is trained.
func (p *LRB) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	p.scratch = p.set.Sample(p.rng, sampleN, p.scratch)
	var victim cache.Key
	best := math.Inf(-1)
	for _, i := range p.scratch {
		k, _ := p.set.At(i)
		h := p.hist[k]
		if h == nil {
			return k, true // no metadata: evict immediately
		}
		var score float64
		if p.model == nil {
			score = float64(p.now - h.lastAccess) // LRU fallback
		} else {
			score = p.model.Predict(p.features(h, p.now))
		}
		if score > best {
			best = score
			victim = k
		}
	}
	return victim, true
}

// MetadataBytesPerObject implements cache.Footprinter: the per-object
// feature state (deltas, EDCs, last access, size).
func (p *LRB) MetadataBytesPerObject() int64 {
	return 8 * (numDeltas + numEDCs + 2)
}
