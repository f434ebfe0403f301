// Package tinylfu implements a TinyLFU-style admission policy
// (Einziger, Friedman & Manes; cited in the paper's related work §2)
// over segmented-LRU eviction: a Bloom-filter doorkeeper absorbs
// one-hit wonders, a count-min sketch tracks recent popularity, and a
// missed object is admitted only when its estimated frequency beats
// the would-be victim's.
package tinylfu

import (
	"raven/internal/cache"
	"raven/internal/policy/lru"
	"raven/internal/sketch"
)

// TinyLFU couples sketch-based admission with SLRU eviction.
type TinyLFU struct {
	*lru.SLRU
	door     *sketch.Bloom
	sk       *sketch.CountMin
	capacity int64
	used     int64
	sizes    map[cache.Key]int64
}

// New returns a TinyLFU policy for a cache of the given byte capacity.
// entriesEstimate sizes the sketch (how many objects roughly fit).
func New(capacity int64, entriesEstimate int) *TinyLFU {
	if entriesEstimate < 64 {
		entriesEstimate = 64
	}
	return &TinyLFU{
		SLRU:     lru.NewSLRU(4, capacity),
		door:     sketch.NewBloom(entriesEstimate),
		sk:       sketch.NewCountMin(4, 4*entriesEstimate, uint64(16*entriesEstimate)),
		capacity: capacity,
		sizes:    make(map[cache.Key]int64),
	}
}

// OnAdmit implements cache.Policy.
func (p *TinyLFU) OnAdmit(req cache.Request) {
	p.used += req.Size
	p.sizes[req.Key] = req.Size
	p.SLRU.OnAdmit(req)
}

// OnEvict implements cache.Policy.
func (p *TinyLFU) OnEvict(key cache.Key) {
	p.used -= p.sizes[key]
	delete(p.sizes, key)
	p.SLRU.OnEvict(key)
}

// Name implements cache.Policy.
func (p *TinyLFU) Name() string { return "tinylfu" }

func (p *TinyLFU) observe(key cache.Key) {
	// The doorkeeper absorbs first occurrences; repeats reach the
	// sketch, so one-hit wonders never pollute it.
	if p.door.AddIfMissing(uint64(key)) {
		p.sk.Add(uint64(key))
	}
}

// freq returns the sketched frequency including the doorkeeper bit.
func (p *TinyLFU) freq(key cache.Key) uint32 {
	f := p.sk.Estimate(uint64(key))
	if p.door.Contains(uint64(key)) {
		f++
	}
	return f
}

// OnHit implements cache.Policy.
func (p *TinyLFU) OnHit(req cache.Request) {
	p.observe(req.Key)
	p.SLRU.OnHit(req)
}

// OnMiss implements cache.Policy.
func (p *TinyLFU) OnMiss(req cache.Request) {
	p.observe(req.Key)
	p.SLRU.OnMiss(req)
}

// Admit implements cache.Admitter: the TinyLFU duel — the newcomer
// must be at least as popular as the object that would be evicted to
// make room. Newcomers that fit in free space are always admitted.
func (p *TinyLFU) Admit(req cache.Request) cache.Decision {
	if p.used+req.Size <= p.capacity {
		return cache.Accepted
	}
	if victim, ok := p.SLRU.Victim(); ok && p.freq(req.Key) < p.freq(victim) {
		return cache.Reject(cache.RejectPolicy)
	}
	return cache.Accepted
}
