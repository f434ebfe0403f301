// Package arc implements ARC (Megiddo & Modha, FAST '03), the adaptive
// replacement cache cited in the paper's related work §2: two resident
// lists — T1 (recency) and T2 (frequency) — balanced by a
// self-tuning target p, with ghost lists B1/B2 supplying the
// adaptation signal. This version accounts in bytes so it handles
// variable object sizes.
package arc

import (
	"container/list"

	"raven/internal/cache"
)

type where int

const (
	inT1 where = iota
	inT2
	inB1
	inB2
)

type entry struct {
	key  cache.Key
	size int64
	loc  where
	elem *list.Element
}

// ARC is the policy.
type ARC struct {
	capacity int64
	p        int64 // target size of T1 in bytes

	t1, t2, b1, b2 *list.List // front = most recent
	bytes          [4]int64
	items          map[cache.Key]*entry

	// pendingT2 marks a key that should be admitted to T2 (it was in
	// a ghost list when it missed).
	pendingT2 map[cache.Key]bool
}

// New returns an ARC policy for a cache of the given byte capacity.
func New(capacity int64) *ARC {
	if capacity <= 0 {
		panic("arc: capacity must be positive")
	}
	return &ARC{
		capacity:  capacity,
		t1:        list.New(),
		t2:        list.New(),
		b1:        list.New(),
		b2:        list.New(),
		items:     make(map[cache.Key]*entry),
		pendingT2: make(map[cache.Key]bool),
	}
}

// Name implements cache.Policy.
func (p *ARC) Name() string { return "arc" }

func (p *ARC) listOf(w where) *list.List {
	switch w {
	case inT1:
		return p.t1
	case inT2:
		return p.t2
	case inB1:
		return p.b1
	default:
		return p.b2
	}
}

func (p *ARC) detach(e *entry) {
	p.listOf(e.loc).Remove(e.elem)
	p.bytes[e.loc] -= e.size
	e.elem = nil
}

func (p *ARC) attach(e *entry, w where) {
	e.loc = w
	e.elem = p.listOf(w).PushFront(e)
	p.bytes[w] += e.size
}

// OnHit moves the object to T2's head (it has proven frequency).
func (p *ARC) OnHit(req cache.Request) {
	e, ok := p.items[req.Key]
	if !ok || (e.loc != inT1 && e.loc != inT2) {
		return
	}
	p.detach(e)
	p.attach(e, inT2)
}

// OnMiss adapts the target p when the key sits in a ghost list.
func (p *ARC) OnMiss(req cache.Request) {
	e, ok := p.items[req.Key]
	if !ok {
		return
	}
	switch e.loc {
	case inB1:
		// Recency ghosts hit: grow T1's share.
		delta := req.Size
		if p.bytes[inB1] > 0 && p.bytes[inB2] > p.bytes[inB1] {
			delta = req.Size * p.bytes[inB2] / p.bytes[inB1]
		}
		p.p += delta
		if p.p > p.capacity {
			p.p = p.capacity
		}
		p.pendingT2[req.Key] = true
	case inB2:
		delta := req.Size
		if p.bytes[inB2] > 0 && p.bytes[inB1] > p.bytes[inB2] {
			delta = req.Size * p.bytes[inB1] / p.bytes[inB2]
		}
		p.p -= delta
		if p.p < 0 {
			p.p = 0
		}
		p.pendingT2[req.Key] = true
	}
}

// OnAdmit inserts the object into T1, or T2 when it returned from a
// ghost list.
func (p *ARC) OnAdmit(req cache.Request) {
	if e, ok := p.items[req.Key]; ok {
		p.detach(e) // leave ghost list
		e.size = req.Size
		if p.pendingT2[req.Key] {
			delete(p.pendingT2, req.Key)
			p.attach(e, inT2)
		} else {
			p.attach(e, inT1)
		}
		return
	}
	e := &entry{key: req.Key, size: req.Size}
	p.items[req.Key] = e
	p.attach(e, inT1)
	p.trimGhosts()
}

// OnEvict demotes the victim to the matching ghost list.
func (p *ARC) OnEvict(key cache.Key) {
	e, ok := p.items[key]
	if !ok {
		return
	}
	switch e.loc {
	case inT1:
		p.detach(e)
		p.attach(e, inB1)
	case inT2:
		p.detach(e)
		p.attach(e, inB2)
	}
	p.trimGhosts()
}

// trimGhosts bounds each ghost list to the cache capacity in bytes.
func (p *ARC) trimGhosts() {
	for _, w := range []where{inB1, inB2} {
		l := p.listOf(w)
		for p.bytes[w] > p.capacity && l.Len() > 0 {
			back := l.Back()
			e := back.Value.(*entry)
			p.detach(e)
			delete(p.items, e.key)
			delete(p.pendingT2, e.key)
		}
	}
}

// Victim implements cache.Policy: evict from T1 while it exceeds its
// target share, otherwise from T2.
func (p *ARC) Victim() (cache.Key, bool) {
	if p.bytes[inT1] > p.p || p.t2.Len() == 0 {
		if back := p.t1.Back(); back != nil {
			return back.Value.(*entry).key, true
		}
	}
	if back := p.t2.Back(); back != nil {
		return back.Value.(*entry).key, true
	}
	if back := p.t1.Back(); back != nil {
		return back.Value.(*entry).key, true
	}
	return 0, false
}

// TargetP returns the current adaptation target in bytes (for tests).
func (p *ARC) TargetP() int64 { return p.p }
