// Package lru implements the recency-based baselines: LRU, FIFO, and
// segmented LRU (S4LRU), the strongest simple heuristics in the
// paper's baseline set (§5.1.2).
package lru

import (
	"container/list"

	"raven/internal/cache"
)

// LRU evicts the least recently used object.
type LRU struct {
	ll    *list.List // of cache.Key, front = most recently used
	items map[cache.Key]*list.Element
	fifo  bool
	name  string
}

// New returns an LRU policy.
func New() *LRU {
	return &LRU{ll: list.New(), items: make(map[cache.Key]*list.Element), name: "lru"}
}

// NewFIFO returns a FIFO policy (insertion order, no promotion).
func NewFIFO() *LRU {
	return &LRU{ll: list.New(), items: make(map[cache.Key]*list.Element), fifo: true, name: "fifo"}
}

// Name implements cache.Policy.
func (p *LRU) Name() string { return p.name }

// OnHit implements cache.Policy.
func (p *LRU) OnHit(req cache.Request) {
	if e, ok := p.items[req.Key]; ok && !p.fifo {
		p.ll.MoveToFront(e)
	}
}

// OnMiss implements cache.Policy.
func (p *LRU) OnMiss(cache.Request) {}

// OnAdmit implements cache.Policy.
func (p *LRU) OnAdmit(req cache.Request) {
	p.items[req.Key] = p.ll.PushFront(req.Key)
}

// OnEvict implements cache.Policy.
func (p *LRU) OnEvict(key cache.Key) {
	if e, ok := p.items[key]; ok {
		p.ll.Remove(e)
		delete(p.items, key)
	}
}

// Victim implements cache.Policy.
func (p *LRU) Victim() (cache.Key, bool) {
	back := p.ll.Back()
	if back == nil {
		return 0, false
	}
	return back.Value.(cache.Key), true
}
