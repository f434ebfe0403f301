// Package belady implements the offline optimal algorithms the paper
// uses as upper bounds (§5.3): Belady's MIN (evict the object whose
// next request is farthest in the future, optimal for unit-size
// objects and near-optimal for BHR) and Belady-Size (evict the object
// with the largest size × next-use distance, the widely used OHR
// extension), plus a flow-style offline OHR upper bound (pfoo.go).
//
// These policies read Request.Next, the oracle next-arrival annotation
// produced by trace.AnnotateNext; running them on an unannotated trace
// is a programming error and panics on first use.
package belady

import (
	"container/heap"

	"raven/internal/cache"
	"raven/internal/stats"
	"raven/internal/trace"
)

type future struct {
	key   cache.Key
	next  int64
	stale bool
}

// max-heap on next-request time with lazy invalidation.
type futureHeap []*future

func (h futureHeap) Len() int            { return len(h) }
func (h futureHeap) Less(i, j int) bool  { return h[i].next > h[j].next }
func (h futureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *futureHeap) Push(x interface{}) { *h = append(*h, x.(*future)) }
func (h *futureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Belady is the exact offline MIN algorithm, implemented with a lazy
// max-heap over next-request times: stale heap entries (superseded by
// a newer request of the same object) are skipped at pop time, so each
// request costs O(log n) amortized.
type Belady struct {
	h       futureHeap
	current map[cache.Key]*future
}

// New returns an exact Belady policy.
func New() *Belady {
	return &Belady{current: make(map[cache.Key]*future)}
}

// Name implements cache.Policy.
func (p *Belady) Name() string { return "belady" }

func (p *Belady) record(req cache.Request) {
	if req.Next == 0 {
		panic("belady: trace not annotated with next-arrival times")
	}
	if f, ok := p.current[req.Key]; ok {
		f.stale = true
	}
	f := &future{key: req.Key, next: req.Next}
	p.current[req.Key] = f
	heap.Push(&p.h, f)
}

// OnHit implements cache.Policy.
func (p *Belady) OnHit(req cache.Request) { p.record(req) }

// OnMiss implements cache.Policy.
func (p *Belady) OnMiss(cache.Request) {}

// OnAdmit implements cache.Policy.
func (p *Belady) OnAdmit(req cache.Request) { p.record(req) }

// OnEvict implements cache.Policy.
func (p *Belady) OnEvict(key cache.Key) {
	if f, ok := p.current[key]; ok {
		f.stale = true
		delete(p.current, key)
	}
}

// Victim implements cache.Policy.
func (p *Belady) Victim() (cache.Key, bool) {
	for p.h.Len() > 0 {
		top := p.h[0]
		if top.stale {
			heap.Pop(&p.h)
			continue
		}
		return top.key, true
	}
	return 0, false
}

type sizeMeta struct {
	next int64
	size int64
}

// BeladySize evicts the object with the largest size × (next-use
// distance) among a random candidate sample, the OHR-oriented Belady
// variant of §3.4. Sampling keeps evictions O(1); with caches holding
// fewer objects than the sample size the choice is exact.
type BeladySize struct {
	set     *cache.SampledSet[sizeMeta]
	rng     *stats.RNG
	now     int64
	sampleN int
	scratch []int
}

// NewSize returns a Belady-Size policy sampling up to sampleN
// candidates per eviction (64 if sampleN <= 0).
func NewSize(seed int64, sampleN int) *BeladySize {
	if sampleN <= 0 {
		sampleN = 64
	}
	return &BeladySize{
		set:     cache.NewSampledSet[sizeMeta](),
		rng:     stats.NewRNG(seed),
		sampleN: sampleN,
	}
}

// Name implements cache.Policy.
func (p *BeladySize) Name() string { return "belady-size" }

func (p *BeladySize) record(req cache.Request) {
	if req.Next == 0 {
		panic("belady: trace not annotated with next-arrival times")
	}
	p.now = req.Time
	if m := p.set.Ref(req.Key); m != nil {
		m.next = req.Next
		return
	}
	p.set.Add(req.Key, sizeMeta{next: req.Next, size: req.Size})
}

// OnHit implements cache.Policy.
func (p *BeladySize) OnHit(req cache.Request) { p.record(req) }

// OnMiss implements cache.Policy.
func (p *BeladySize) OnMiss(req cache.Request) { p.now = req.Time }

// OnAdmit implements cache.Policy.
func (p *BeladySize) OnAdmit(req cache.Request) { p.record(req) }

// OnEvict implements cache.Policy.
func (p *BeladySize) OnEvict(key cache.Key) { p.set.Remove(key) }

// Victim implements cache.Policy.
func (p *BeladySize) Victim() (cache.Key, bool) {
	if p.set.Len() == 0 {
		return 0, false
	}
	p.scratch = p.set.Sample(p.rng, p.sampleN, p.scratch)
	var victim cache.Key
	best := -1.0
	for _, i := range p.scratch {
		k, m := p.set.At(i)
		dist := m.next - p.now
		if m.next == trace.NoNext {
			// Never requested again: infinite cost, evict first.
			return k, true
		}
		if dist < 1 {
			dist = 1
		}
		cost := float64(m.size) * float64(dist)
		if cost > best {
			best = cost
			victim = k
		}
	}
	return victim, true
}
