// Package lecar implements LeCaR (Vietri et al., HotStorage '18):
// regret-minimizing online selection between an LRU expert and an LFU
// expert, with ghost histories providing the regret signal. The LFU
// expert uses 64-candidate sampling so evictions stay O(1) in cache
// size.
package lecar

import (
	"container/list"
	"math"

	"raven/internal/cache"
	"raven/internal/stats"
)

const (
	learningRate = 0.45
	lfuSample    = 64
)

type meta struct {
	freq int64
	elem *list.Element // position in the LRU list
}

type ghost struct {
	key  cache.Key
	step int64
	elem *list.Element
}

type ghostList struct {
	ll    *list.List
	items map[cache.Key]*ghost
}

func newGhostList() *ghostList {
	return &ghostList{ll: list.New(), items: make(map[cache.Key]*ghost)}
}

func (g *ghostList) add(key cache.Key, step int64, max int) {
	if old, ok := g.items[key]; ok {
		g.ll.Remove(old.elem)
		delete(g.items, key)
	}
	gh := &ghost{key: key, step: step}
	gh.elem = g.ll.PushFront(gh)
	g.items[key] = gh
	for g.ll.Len() > max {
		back := g.ll.Back()
		delete(g.items, back.Value.(*ghost).key)
		g.ll.Remove(back)
	}
}

func (g *ghostList) take(key cache.Key) (int64, bool) {
	gh, ok := g.items[key]
	if !ok {
		return 0, false
	}
	g.ll.Remove(gh.elem)
	delete(g.items, key)
	return gh.step, true
}

// minHistory is the smallest ghost-list bound and regret horizon, for a
// cache that holds only a handful of objects.
const minHistory = 16

// LeCaR mixes LRU and LFU eviction with multiplicative-weights regret
// updates driven by ghost-list hits.
type LeCaR struct {
	rng *stats.RNG
	set *cache.SampledSet[meta]
	ll  *list.List // LRU order, front = most recent
	scr []int

	wLRU, wLFU float64
	step       int64

	hLRU, hLFU *ghostList
}

// New returns a LeCaR policy. Its ghost histories and its regret
// discount horizon are sized by the objects it holds (history), as the
// paper sizes them by the cache's object count.
func New(seed int64) *LeCaR {
	return &LeCaR{
		rng:  stats.NewRNG(seed),
		set:  cache.NewSampledSet[meta](),
		ll:   list.New(),
		wLRU: 0.5,
		wLFU: 0.5,
		hLRU: newGhostList(),
		hLFU: newGhostList(),
	}
}

// history is the number of objects LeCaR holds, at least minHistory:
// the bound of each ghost list and the regret discount horizon, over
// which a ghost hit's reward decays to 0.005.
func (p *LeCaR) history() int { return max(p.set.Len(), minHistory) }

// Name implements cache.Policy.
func (p *LeCaR) Name() string { return "lecar" }

// OnHit implements cache.Policy.
func (p *LeCaR) OnHit(req cache.Request) {
	p.step++
	if m := p.set.Ref(req.Key); m != nil {
		m.freq++
		p.ll.MoveToFront(m.elem)
	}
}

// OnMiss applies the regret update when the missed key sits in one of
// the ghost histories: the expert that evicted it is penalized by
// boosting the other expert's weight.
func (p *LeCaR) OnMiss(req cache.Request) {
	p.step++
	if evStep, ok := p.hLRU.take(req.Key); ok {
		p.wLFU *= math.Exp(learningRate * p.reward(evStep))
	} else if evStep, ok := p.hLFU.take(req.Key); ok {
		p.wLRU *= math.Exp(learningRate * p.reward(evStep))
	}
	sum := p.wLRU + p.wLFU
	p.wLRU /= sum
	p.wLFU /= sum
}

// reward is the regret of an eviction made at step evStep, discounted
// by the steps since: 0.005 after history() of them.
func (p *LeCaR) reward(evStep int64) float64 {
	return math.Pow(0.005, float64(p.step-evStep)/float64(p.history()))
}

// OnAdmit implements cache.Policy.
func (p *LeCaR) OnAdmit(req cache.Request) {
	p.set.Add(req.Key, meta{freq: 1, elem: p.ll.PushFront(req.Key)})
}

// OnEvict implements cache.Policy.
func (p *LeCaR) OnEvict(key cache.Key) {
	if m, ok := p.set.Get(key); ok {
		p.ll.Remove(m.elem)
		p.set.Remove(key)
	}
}

// Victim samples an expert by weight and applies its rule. The victim
// joins that expert's ghost list, which is trimmed to the objects held
// once it is gone (at least minHistory), so neither list outgrows the
// cache.
func (p *LeCaR) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	bound := max(p.set.Len()-1, minHistory)
	var victim cache.Key
	if p.rng.Float64() < p.wLRU {
		victim = p.ll.Back().Value.(cache.Key)
		p.hLRU.add(victim, p.step, bound)
	} else {
		p.scr = p.set.Sample(p.rng, lfuSample, p.scr)
		best := int64(math.MaxInt64)
		for _, i := range p.scr {
			k, m := p.set.At(i)
			if m.freq < best {
				best = m.freq
				victim = k
			}
		}
		p.hLFU.add(victim, p.step, bound)
	}
	return victim, true
}
