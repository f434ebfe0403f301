// Package marker implements the MARKER family used in the paper's
// Appendix B comparison: the classic randomized MARKER algorithm (Fiat
// et al.) and PredictiveMarker (Lykouris & Vassilvitskii, ICML '18),
// which evicts the unmarked object with the farthest predicted reuse
// time. Both assume unit-size objects.
package marker

import (
	"container/list"
	"sort"

	"raven/internal/cache"
	"raven/internal/stats"
)

// EWMAPredictor supplies reuse-time predictions to PredictiveMarker:
// the next arrival is the last one plus an exponentially weighted
// moving average of observed interarrival times. Unseen or once-seen
// keys predict far in the future, mirroring how ML oracles treat cold
// objects. History survives eviction, like the paper's ML oracle,
// which is trained on the full request stream.
type EWMAPredictor struct {
	alpha float64
	last  map[cache.Key]int64
	ewma  map[cache.Key]float64
	far   float64
}

// NewEWMAPredictor returns a predictor with smoothing alpha in (0, 1].
func NewEWMAPredictor(alpha float64) *EWMAPredictor {
	if alpha <= 0 || alpha > 1 {
		panic("marker: EWMA alpha must be in (0,1]")
	}
	return &EWMAPredictor{
		alpha: alpha,
		last:  make(map[cache.Key]int64),
		ewma:  make(map[cache.Key]float64),
		far:   1,
	}
}

// Observe records a request for key at time now.
func (p *EWMAPredictor) Observe(key cache.Key, now int64) {
	if lt, ok := p.last[key]; ok {
		tau := float64(now - lt)
		if tau < 1 {
			tau = 1
		}
		if e, ok := p.ewma[key]; ok {
			p.ewma[key] = (1-p.alpha)*e + p.alpha*tau
		} else {
			p.ewma[key] = tau
		}
		if tau > p.far {
			p.far = tau
		}
	}
	p.last[key] = now
}

// PredictNext returns the predicted time of key's next request.
func (p *EWMAPredictor) PredictNext(key cache.Key, now int64) float64 {
	if e, ok := p.ewma[key]; ok {
		return float64(p.last[key]) + e
	}
	return float64(now) + 10*p.far // cold object: assume far future
}

type markState struct {
	marked bool
	elem   *list.Element // position in unmarked list (nil when marked)
}

// Marker implements the (Predictive)MARKER algorithm as a
// cache.Policy. With a nil predictor it evicts a uniformly random
// unmarked object (classic MARKER); with a predictor it evicts the
// unmarked object with the farthest predicted reuse.
type Marker struct {
	rng      *stats.RNG
	pred     *EWMAPredictor
	items    map[cache.Key]*markState
	unmarked *list.List
	now      int64
}

// New returns classic randomized MARKER.
func New(seed int64) *Marker {
	return &Marker{
		rng:      stats.NewRNG(seed),
		items:    make(map[cache.Key]*markState),
		unmarked: list.New(),
	}
}

// NewPredictive returns PredictiveMarker with the given reuse-time
// predictor.
func NewPredictive(seed int64, pred *EWMAPredictor) *Marker {
	m := New(seed)
	m.pred = pred
	return m
}

// Name implements cache.Policy.
func (p *Marker) Name() string {
	if p.pred != nil {
		return "predictivemarker"
	}
	return "marker"
}

func (p *Marker) mark(key cache.Key) {
	st, ok := p.items[key]
	if !ok {
		return
	}
	if !st.marked {
		if st.elem != nil {
			p.unmarked.Remove(st.elem)
			st.elem = nil
		}
		st.marked = true
	}
}

// OnHit implements cache.Policy.
func (p *Marker) OnHit(req cache.Request) {
	p.now = req.Time
	if p.pred != nil {
		p.pred.Observe(req.Key, req.Time)
	}
	p.mark(req.Key)
}

// OnMiss implements cache.Policy.
func (p *Marker) OnMiss(req cache.Request) {
	p.now = req.Time
	if p.pred != nil {
		p.pred.Observe(req.Key, req.Time)
	}
}

// OnAdmit inserts the object marked (it was just requested).
func (p *Marker) OnAdmit(req cache.Request) {
	p.items[req.Key] = &markState{marked: true}
}

// OnEvict implements cache.Policy.
func (p *Marker) OnEvict(key cache.Key) {
	st, ok := p.items[key]
	if !ok {
		return
	}
	if st.elem != nil {
		p.unmarked.Remove(st.elem)
	}
	delete(p.items, key)
}

// Victim implements cache.Policy. When every cached object is marked a
// new phase begins: all marks are cleared first.
func (p *Marker) Victim() (cache.Key, bool) {
	if len(p.items) == 0 {
		return 0, false
	}
	if p.unmarked.Len() == 0 {
		// Phase change: unmark everything, in sorted key order so the
		// policy stays deterministic under map iteration.
		keys := make([]cache.Key, 0, len(p.items))
		for k := range p.items {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			st := p.items[k]
			st.marked = false
			st.elem = p.unmarked.PushBack(k)
		}
	}
	if p.pred == nil {
		// Classic MARKER: uniform random unmarked object.
		n := p.rng.Intn(p.unmarked.Len())
		e := p.unmarked.Front()
		for i := 0; i < n; i++ {
			e = e.Next()
		}
		return e.Value.(cache.Key), true
	}
	// PredictiveMarker: farthest predicted reuse among unmarked.
	var victim cache.Key
	best := -1.0
	for e := p.unmarked.Front(); e != nil; e = e.Next() {
		k := e.Value.(cache.Key)
		if t := p.pred.PredictNext(k, p.now); t > best {
			best = t
			victim = k
		}
	}
	return victim, true
}
