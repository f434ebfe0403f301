// Package freq implements the frequency- and priority-queue-based
// baselines: LFU, LFUDA (LFU with dynamic aging), GDSF
// (GreedyDual-Size with Frequency), and LRU-K. All share a mutable
// min-priority heap: the object with the smallest priority is evicted.
package freq

import (
	"container/heap"

	"raven/internal/cache"
)

type item struct {
	key  cache.Key
	pri  float64
	seq  uint64 // insertion order tiebreak (FIFO among equals)
	idx  int
	meta meta
}

type meta struct {
	freq  int64
	size  int64
	times []int64 // last K access times, most recent last (LRU-K only)
}

type prioHeap []*item

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	if h[i].pri != h[j].pri { //lint:allow float-equal exact tie falls through to the deterministic sequence tie-break
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *prioHeap) Push(x interface{}) {
	it := x.(*item)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *prioHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Policy is the shared heap-driven eviction policy; the priority
// function distinguishes LFU/LFUDA/GDSF/LRU-K.
type Policy struct {
	name  string
	h     prioHeap
	items map[cache.Key]*item
	seq   uint64
	// aging offset L: the priority of the most recently evicted
	// object (LFUDA and GDSF); zero and unused for plain LFU.
	l        float64
	priority func(p *Policy, m *meta, now int64) float64
	k        int // history length for LRU-K
}

func newPolicy(name string, k int, pri func(p *Policy, m *meta, now int64) float64) *Policy {
	return &Policy{name: name, items: make(map[cache.Key]*item), priority: pri, k: k}
}

// NewLFU returns least-frequently-used eviction.
func NewLFU() *Policy {
	return newPolicy("lfu", 0, func(_ *Policy, m *meta, _ int64) float64 {
		return float64(m.freq)
	})
}

// NewLFUDA returns LFU with dynamic aging: priority = L + freq, where
// L is the priority of the last evicted object, so long-resident but
// stale objects eventually age out.
func NewLFUDA() *Policy {
	return newPolicy("lfuda", 0, func(p *Policy, m *meta, _ int64) float64 {
		return p.l + float64(m.freq)
	})
}

// NewGDSF returns GreedyDual-Size with Frequency: priority =
// L + freq/size, favouring small popular objects (good OHR).
func NewGDSF() *Policy {
	return newPolicy("gdsf", 0, func(p *Policy, m *meta, _ int64) float64 {
		return p.l + float64(m.freq)/float64(m.size)
	})
}

// NewLRUK returns LRU-K eviction (k >= 1): evict the object whose k-th
// most recent access is oldest; objects with fewer than k accesses
// rank lowest (their k-distance is infinite).
func NewLRUK(k int) *Policy {
	if k < 1 {
		panic("freq: LRU-K needs k >= 1")
	}
	return newPolicy("lruk", k, func(_ *Policy, m *meta, _ int64) float64 {
		if len(m.times) < cap(m.times) {
			return 0 // infinite k-distance: evict first
		}
		return float64(m.times[0]) // oldest of the last k accesses
	})
}

// Name implements cache.Policy.
func (p *Policy) Name() string { return p.name }

// OnHit implements cache.Policy.
func (p *Policy) OnHit(req cache.Request) {
	it, ok := p.items[req.Key]
	if !ok {
		return
	}
	p.touch(it, req)
	it.pri = p.priority(p, &it.meta, req.Time)
	heap.Fix(&p.h, it.idx)
}

// OnMiss implements cache.Policy.
func (p *Policy) OnMiss(cache.Request) {}

// OnAdmit implements cache.Policy.
func (p *Policy) OnAdmit(req cache.Request) {
	it := &item{key: req.Key, seq: p.seq}
	p.seq++
	it.meta.size = req.Size
	if p.k > 0 {
		it.meta.times = make([]int64, 0, p.k)
	}
	p.touch(it, req)
	it.pri = p.priority(p, &it.meta, req.Time)
	p.items[req.Key] = it
	heap.Push(&p.h, it)
}

func (p *Policy) touch(it *item, req cache.Request) {
	it.meta.freq++
	if p.k > 0 {
		if len(it.meta.times) == cap(it.meta.times) {
			copy(it.meta.times, it.meta.times[1:])
			it.meta.times = it.meta.times[:len(it.meta.times)-1]
		}
		it.meta.times = append(it.meta.times, req.Time)
	}
}

// OnEvict implements cache.Policy.
func (p *Policy) OnEvict(key cache.Key) {
	it, ok := p.items[key]
	if !ok {
		return
	}
	p.l = it.pri // dynamic aging: remember the evicted priority
	heap.Remove(&p.h, it.idx)
	delete(p.items, key)
}

// Victim implements cache.Policy.
func (p *Policy) Victim() (cache.Key, bool) {
	if len(p.h) == 0 {
		return 0, false
	}
	return p.h[0].key, true
}
