package core

import (
	"raven/internal/cache"
)

// The record table: everything the policy knows about an object, in one
// place (DESIGN.md "Per-object state"). One index map resolves a key to
// a uint32 handle; the state behind the handle lives in chunked slabs,
// so a record costs its own bytes and no heap object of its own:
//
//   - a core record (rec) for every known key, resident or not;
//   - an interarrival ring, from the key's second sighting on — a
//     one-hit wonder never gets one;
//   - a side record (resRec) plus embedding while the object is cached
//     or carries an embedding computed by the current model.
//
// Residents are threaded on an LRU list and listed in a dense array for
// candidate sampling; everything else is threaded on an age queue, the
// old end of which is what trim drops. A record is on exactly one of
// the two lists, so both share rec.prev/next.

const (
	slabShift = 9
	slabChunk = 1 << slabShift
	slabMask  = slabChunk - 1
)

// slab is an arena of T addressed by uint32 handles; handle 0 is "none".
// It grows one fixed chunk at a time: growth never copies (a doubling
// append holds the old and the new backing array at once, and both land
// in the process's peak RSS), and a *T stays valid for the slab's
// lifetime. Released slots are zeroed and reissued before the slab
// grows.
type slab[T any] struct {
	chunks [][]T
	top    uint32 // highest handle ever issued
	free   []uint32
}

func (s *slab[T]) at(h uint32) *T { return &s.chunks[h>>slabShift][h&slabMask] }

func (s *slab[T]) alloc() uint32 {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	s.top++
	if int(s.top>>slabShift) == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	return s.top
}

func (s *slab[T]) release(h uint32) {
	var zero T
	*s.at(h) = zero
	s.free = append(s.free, h)
}

// rec is the core record kept for every known key. It survives
// eviction (like LRB's feature store): an object that re-enters the
// cache resumes with its learned history instead of a cold embedding.
type rec struct {
	key      cache.Key
	lastSeen int64
	size     int64
	ring     uint32 // rings handle; 0 until the second sighting
	res      uint32 // sides handle; 0 unless resident or carrying a live embedding
	// prev/next thread the LRU list while the object is resident and
	// the age queue while it is not; prev points towards the front.
	prev, next uint32
	win        winMark
}

// ring holds an object's most recent interarrival times, oldest first,
// for re-embedding after a model swap.
type ring struct {
	n uint32
	v [historyLen]float64
}

func (g *ring) push(tau float64) {
	if g.n == historyLen {
		copy(g.v[:], g.v[1:])
		g.v[historyLen-1] = tau
		return
	}
	g.v[g.n] = tau
	g.n++
}

func (g *ring) taus() []float64 { return g.v[:g.n] }

// resRec is the side record of a resident object: its place in the
// dense sample array, the version stamp of its embedding (the floats
// live in table.embs under the same handle) and the score cache
// (fastpath.go). epoch increments every time the object's history
// advances; a cached score is valid while both its epoch stamp and its
// model-version stamp still match, so a score survives across decisions
// exactly until the object is touched or the model is swapped.
//
// An evicted object keeps its side record only while its embedding was
// computed by the current model: stepping that embedding on the next
// sighting is not the same arithmetic as re-embedding the (shorter)
// ring, so dropping it would change scores. A stale one is released at
// eviction, or at the ghost's next sighting.
type resRec struct {
	epoch    int64
	score    float64 // cached priority: predicted next-arrival time (ticks)
	scoreEp  int64   // epoch the score was computed at
	scoreVer int32   // nn.Net.Version the score was computed with; -1 = never
	embVer   int32   // nn.Net.Version the embedding was computed with; -1 = none
	pos      int32   // index in table.dense; -1 while not resident
}

// order is an intrusive doubly-linked list threaded through
// rec.prev/next. The front is the most recent end.
type order struct{ front, back uint32 }

func (o *order) pushFront(recs *slab[rec], h uint32) {
	rc := recs.at(h)
	rc.prev, rc.next = 0, o.front
	if o.front != 0 {
		recs.at(o.front).prev = h
	} else {
		o.back = h
	}
	o.front = h
}

func (o *order) remove(recs *slab[rec], h uint32) {
	rc := recs.at(h)
	if rc.prev != 0 {
		recs.at(rc.prev).next = rc.next
	} else {
		o.front = rc.next
	}
	if rc.next != 0 {
		recs.at(rc.next).prev = rc.prev
	} else {
		o.back = rc.prev
	}
	rc.prev, rc.next = 0, 0
}

func (o *order) moveToFront(recs *slab[rec], h uint32) {
	if o.front == h {
		return
	}
	o.remove(recs, h)
	o.pushFront(recs, h)
}

// History-store bound: once the table holds ghostsPerResident×resident
// + ghostFloor records, every new key drops from the old end of the age
// queue (Raven.trim).
const (
	ghostsPerResident = 8
	ghostFloor        = 200000
)

type table struct {
	index map[cache.Key]uint32
	recs  slab[rec]
	rings slab[ring]
	sides slab[resRec]
	// embs[c] backs the embeddings of sides chunk c, dim floats per
	// handle, allocated at the chunk's first embedding.
	embs [][]float64
	dim  int

	lru    order // residents; front = most recently used
	ghosts order // non-residents; front = most recently seen or evicted
	// dense lists the residents in cache.SampledSet's order — append on
	// admit, swap-delete on evict — so a sampled index names the same
	// object it would there.
	dense   []uint32
	sampler cache.IndexSampler

	// The two handles a request resolves, kept so OnAdmit, OnEvict and
	// PredictNextArrival need no lookup of their own: the request's key
	// (set by find) and the last victim (set by Victim).
	reqKey, vicKey cache.Key
	reqH, vicH     uint32

	floor int // ghostFloor; tests shrink it
	// examined counts the records trim looked at; it is how the test
	// of the bound sees that a new key costs O(1).
	examined int64
}

func newTable() *table {
	return &table{index: make(map[cache.Key]uint32, 4096), floor: ghostFloor}
}

// find resolves key to its record handle, 0 when the key is unknown.
func (t *table) find(key cache.Key) uint32 {
	if t.reqH != 0 && t.reqKey == key {
		return t.reqH
	}
	if t.vicH != 0 && t.vicKey == key {
		return t.vicH
	}
	h := t.index[key]
	t.reqKey, t.reqH = key, h
	return h
}

// insert creates the record of a key seen for the first time, as the
// youngest ghost.
func (t *table) insert(key cache.Key, now, size int64) uint32 {
	h := t.recs.alloc()
	*t.recs.at(h) = rec{key: key, lastSeen: now, size: size}
	t.index[key] = h
	t.ghosts.pushFront(&t.recs, h)
	t.reqKey, t.reqH = key, h
	return h
}

// drop forgets a non-resident record entirely.
func (t *table) drop(h uint32) {
	rc := t.recs.at(h)
	t.ghosts.remove(&t.recs, h)
	if rc.ring != 0 {
		t.rings.release(rc.ring)
	}
	if rc.res != 0 {
		t.sides.release(rc.res)
	}
	delete(t.index, rc.key)
	t.recs.release(h)
	if t.reqH == h {
		t.reqH = 0
	}
	if t.vicH == h {
		t.vicH = 0
	}
}

// side returns rc's side record, creating an unscored, unembedded one
// if it has none.
func (t *table) side(rc *rec) *resRec {
	if rc.res == 0 {
		rc.res = t.sides.alloc()
		*t.sides.at(rc.res) = resRec{scoreVer: -1, embVer: -1, pos: -1}
	}
	return t.sides.at(rc.res)
}

// resident reports whether rc is a cached object.
func (t *table) resident(rc *rec) bool {
	return rc.res != 0 && t.sides.at(rc.res).pos >= 0
}

// admit moves a ghost to the front of the LRU list and the end of the
// dense array.
func (t *table) admit(h uint32) {
	rc := t.recs.at(h)
	t.ghosts.remove(&t.recs, h)
	t.lru.pushFront(&t.recs, h)
	t.side(rc).pos = int32(len(t.dense))
	t.dense = append(t.dense, h)
}

// evict makes a resident the youngest ghost. keepSide says whether its
// side record still carries a live embedding.
func (t *table) evict(h uint32, keepSide bool) {
	rc := t.recs.at(h)
	sd := t.sides.at(rc.res)
	last := len(t.dense) - 1
	moved := t.dense[last]
	t.dense[sd.pos] = moved
	t.sides.at(t.recs.at(moved).res).pos = sd.pos
	t.dense = t.dense[:last]
	sd.pos = -1
	if !keepSide {
		t.sides.release(rc.res)
		rc.res = 0
	}
	t.lru.remove(&t.recs, h)
	t.ghosts.pushFront(&t.recs, h)
}

// emb returns the embedding slot of side handle h (dim floats).
func (t *table) emb(h uint32) []float64 {
	c := int(h >> slabShift)
	for len(t.embs) <= c {
		t.embs = append(t.embs, nil)
	}
	if t.embs[c] == nil {
		t.embs[c] = make([]float64, slabChunk*t.dim)
	}
	off := int(h&slabMask) * t.dim
	return t.embs[c][off : off+t.dim : off+t.dim]
}

// setDim sizes the embedding slots for a model whose state is dim
// floats wide. A change of width discards every embedding; it walks the
// side records (residents and live ghosts), not the table.
func (t *table) setDim(dim int) {
	if t.dim == dim {
		return
	}
	t.dim = dim
	clear(t.embs)
	for h := uint32(1); h <= t.sides.top; h++ {
		t.sides.at(h).embVer = -1
	}
}
