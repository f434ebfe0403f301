package lru

import (
	"container/list"
	"fmt"

	"raven/internal/cache"
)

type slruItem struct {
	key  cache.Key
	size int64
	seg  int
}

// SLRU is segmented LRU with n segments of equal byte quota (S4LRU
// when n = 4, as in Facebook's photo cache). Objects are admitted to
// the lowest segment; a hit promotes an object one segment up;
// overflowing segments demote their tails downward; eviction takes the
// tail of the lowest non-empty segment.
type SLRU struct {
	segs     []*list.List // front = most recently used in segment
	segBytes []int64
	quota    int64
	items    map[cache.Key]*list.Element
	name     string
}

// NewSLRU returns a segmented LRU with the given number of segments
// over the given total capacity (needed to derive per-segment quotas).
func NewSLRU(segments int, capacity int64) *SLRU {
	if segments <= 0 {
		panic("lru: SLRU needs at least one segment")
	}
	if capacity <= 0 {
		panic("lru: SLRU needs a positive capacity")
	}
	p := &SLRU{
		segs:     make([]*list.List, segments),
		segBytes: make([]int64, segments),
		quota:    capacity / int64(segments),
		items:    make(map[cache.Key]*list.Element),
		name:     fmt.Sprintf("s%dlru", segments),
	}
	if p.quota <= 0 {
		p.quota = 1
	}
	for i := range p.segs {
		p.segs[i] = list.New()
	}
	return p
}

// Name implements cache.Policy.
func (p *SLRU) Name() string { return p.name }

// OnHit promotes the object one segment (capped at the top segment).
func (p *SLRU) OnHit(req cache.Request) {
	e, ok := p.items[req.Key]
	if !ok {
		return
	}
	it := e.Value.(slruItem)
	next := it.seg + 1
	if next >= len(p.segs) {
		p.segs[it.seg].MoveToFront(e)
		return
	}
	p.segs[it.seg].Remove(e)
	p.segBytes[it.seg] -= it.size
	it.seg = next
	p.items[req.Key] = p.segs[next].PushFront(it)
	p.segBytes[next] += it.size
	p.rebalance()
}

// OnMiss implements cache.Policy.
func (p *SLRU) OnMiss(cache.Request) {}

// OnAdmit inserts into the lowest segment.
func (p *SLRU) OnAdmit(req cache.Request) {
	it := slruItem{key: req.Key, size: req.Size, seg: 0}
	p.items[req.Key] = p.segs[0].PushFront(it)
	p.segBytes[0] += req.Size
}

// OnEvict implements cache.Policy.
func (p *SLRU) OnEvict(key cache.Key) {
	e, ok := p.items[key]
	if !ok {
		return
	}
	it := e.Value.(slruItem)
	p.segs[it.seg].Remove(e)
	p.segBytes[it.seg] -= it.size
	delete(p.items, key)
}

// Victim returns the tail of the lowest non-empty segment.
func (p *SLRU) Victim() (cache.Key, bool) {
	for i := 0; i < len(p.segs); i++ {
		if back := p.segs[i].Back(); back != nil {
			return back.Value.(slruItem).key, true
		}
	}
	return 0, false
}

// rebalance demotes overflow from higher segments so each segment
// (except the lowest) respects its quota.
func (p *SLRU) rebalance() {
	for i := len(p.segs) - 1; i >= 1; i-- {
		for p.segBytes[i] > p.quota {
			back := p.segs[i].Back()
			if back == nil {
				break
			}
			it := back.Value.(slruItem)
			p.segs[i].Remove(back)
			p.segBytes[i] -= it.size
			it.seg = i - 1
			p.items[it.key] = p.segs[i-1].PushFront(it)
			p.segBytes[i-1] += it.size
		}
	}
}
