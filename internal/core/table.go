package core

import (
	"raven/internal/cache"
	"raven/internal/obs"
)

// The record table: everything the policy knows about an object, in one
// place (DESIGN.md "Per-object state"). One cache.HandleIndex resolves a
// key to a uint32 handle; the state behind the handle lives in chunked
// slabs, so a record costs its own bytes and no heap object of its own:
//
//   - a core record (rec) for every known key, resident or not;
//   - an interarrival ring, from the key's second sighting on — a
//     one-hit wonder never gets one — in the smallest of four ring
//     classes that holds its history;
//   - a side record (resRec) while the object is cached or carries an
//     embedding computed by the current model;
//   - an embedding, from the first time the model embeds the key's
//     history, for as long as its side record lives.
//
// Residents are threaded on an LRU list and listed in a dense array for
// candidate sampling; everything else is threaded on an age queue, the
// old end of which is what trim drops. A record is on exactly one of
// the two lists, so both share rec.prev/next.

// rec is the core record kept for every known key. It survives
// eviction (like LRB's feature store): an object that re-enters the
// cache resumes with its learned history instead of a cold embedding.
type rec struct {
	key      cache.Key
	lastSeen int64
	ring     uint32 // ring handle (ring classes below); 0 until the second sighting
	res      uint32 // sides handle; 0 unless resident or carrying a live embedding
	// prev/next thread the LRU list while the object is resident and
	// the age queue while it is not; prev points towards the front.
	prev, next uint32
}

// A ring holds an object's most recent interarrival times, oldest first,
// for re-embedding after a model swap. Rings come in four classes of 2,
// 4, 8 and 16 taus (historyLen), so a key seen twice holds 16 B of
// history, not 128. A ring holds taus only and ends at its first zero:
// a tau is at least 1, and a released slot is zeroed. A ring handle
// carries its class in the top two bits and its handle in the class's
// slab in the rest. A ring starts in the smallest class and moves up one
// class when it overflows; in the largest it drops its oldest tau
// instead.
const (
	ringClasses    = 4
	minRingLen     = historyLen >> (ringClasses - 1)
	ringClassShift = 30
	ringSlotMask   = 1<<ringClassShift - 1
)

// ringWidth is the taus a ring of class c holds.
func ringWidth(c int) int { return minRingLen << c }

// ringLen is how many taus ring g holds: those before its first zero.
// A full ring, the common case for a popular key, is told by its last
// slot alone.
func ringLen(g []float64) int {
	if g[len(g)-1] != 0 { //lint:allow float-equal a tau is at least 1, so only an unwritten slot is zero
		return len(g)
	}
	for i, v := range g {
		if v == 0 { //lint:allow float-equal a tau is at least 1, so only an unwritten slot is zero
			return i
		}
	}
	return len(g)
}

// ring returns the slot of ring handle h.
func (t *table) ring(h uint32) []float64 {
	return t.rings[h>>ringClassShift].Run(h & ringSlotMask)
}

// taus returns rc's interarrival history, oldest first (nil before its
// second sighting).
func (t *table) taus(rc *rec) []float64 {
	if rc.ring == 0 {
		return nil
	}
	g := t.ring(rc.ring)
	return g[:ringLen(g)]
}

// allocRing issues a ring of class c and returns its handle.
func (t *table) allocRing(c uint32) uint32 {
	i, grown := t.rings[c].Alloc()
	t.grew(grown)
	return c<<ringClassShift | i
}

func (t *table) releaseRing(h uint32) { t.rings[h>>ringClassShift].Release(h & ringSlotMask) }

// pushTau appends tau to rc's history, giving rc its first ring or
// moving it up a class when the one it has is full.
func (t *table) pushTau(rc *rec, tau float64) {
	if rc.ring == 0 {
		rc.ring = t.allocRing(0)
	}
	g := t.ring(rc.ring)
	n := ringLen(g)
	if n == len(g) {
		c := rc.ring >> ringClassShift
		if c == ringClasses-1 {
			copy(g, g[1:])
			g[n-1] = tau
			return
		}
		up := t.allocRing(c + 1)
		copy(t.ring(up), g)
		t.releaseRing(rc.ring)
		rc.ring, g = up, t.ring(up)
	}
	g[n] = tau
}

// resRec is the side record of a resident object: its size, its place
// in the dense sample array, its embedding's handle and version stamp,
// and the score cache (fastpath.go). epoch increments every time the
// object's history advances; a cached score is valid while both its
// epoch stamp and its model-version stamp still match, so a score
// survives across decisions exactly until the object is touched or the
// model is swapped.
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
	size     int64   // the size the object was last requested at
	scoreVer int32   // nn.Net.Version the score was computed with; -1 = never
	embVer   int32   // nn.Net.Version the embedding was computed with; -1 = none
	pos      int32   // index in table.dense; -1 while not resident
	emb      uint32  // embedding handle in table.embs; 0 until one is computed
}

// order is an intrusive doubly-linked list threaded through
// rec.prev/next. The front is the most recent end.
type order struct{ front, back uint32 }

func (o *order) pushFront(recs *cache.Slab[rec], h uint32) {
	rc := recs.At(h)
	rc.prev, rc.next = 0, o.front
	if o.front != 0 {
		recs.At(o.front).prev = h
	} else {
		o.back = h
	}
	o.front = h
}

func (o *order) remove(recs *cache.Slab[rec], h uint32) {
	rc := recs.At(h)
	if rc.prev != 0 {
		recs.At(rc.prev).next = rc.next
	} else {
		o.front = rc.next
	}
	if rc.next != 0 {
		recs.At(rc.next).prev = rc.prev
	} else {
		o.back = rc.prev
	}
	rc.prev, rc.next = 0, 0
}

func (o *order) moveToFront(recs *cache.Slab[rec], h uint32) {
	if o.front == h {
		return
	}
	o.remove(recs, h)
	o.pushFront(recs, h)
}

// History-store bound: once the table holds max(recordsPerResident ×
// resident, ghostFloor) records, every new key drops from the old end of
// the age queue (Raven.trim). The floor is a minimum, not a surcharge:
// a table of fewer keys drops nothing, and above it the cache's own size
// sets the ceiling. The sweep in EXPERIMENTS.md "Ablations and §6.1.1
// overhead" chose recordsPerResident (sweep_test.go).
const (
	recordsPerResident = 8
	ghostFloor         = 200000
)

type table struct {
	index *cache.HandleIndex
	recs  cache.Slab[rec]
	rings [ringClasses]cache.Slab[float64] // by class, ringWidth(c) floats a handle
	sides cache.Slab[resRec]
	embs  cache.Slab[float64] // dim floats a handle; made by setDim
	dim   int
	// bytes is raven.table_bytes: what the slabs and index slots hold,
	// added to where they grow.
	bytes *obs.Gauge

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

	// perResident and floor are recordsPerResident and ghostFloor; tests
	// and the sweep of the bound set them (export_test.go).
	perResident, floor int
	// examined counts the records trim looked at; it is how the test
	// of the bound sees that a new key costs O(1).
	examined int64
}

func newTable(bytes *obs.Gauge) *table {
	t := &table{perResident: recordsPerResident, floor: ghostFloor, bytes: bytes}
	t.index = cache.NewHandleIndex(func(h uint32) cache.Key { return t.recs.At(h).key })
	for c := range t.rings {
		t.rings[c] = cache.NewWideSlab[float64](ringWidth(c))
	}
	return t
}

// ceiling is the record count at which a new key starts dropping
// ghosts: max(perResident × resident, floor).
func (t *table) ceiling() int { return max(t.perResident*len(t.dense), t.floor) }

// grew adds the bytes an allocation added to raven.table_bytes.
func (t *table) grew(b int64) {
	if b != 0 {
		t.bytes.Add(b)
	}
}

// find resolves key to its record handle, 0 when the key is unknown.
func (t *table) find(key cache.Key) uint32 {
	if t.reqH != 0 && t.reqKey == key {
		return t.reqH
	}
	if t.vicH != 0 && t.vicKey == key {
		return t.vicH
	}
	h := t.index.Find(key)
	t.reqKey, t.reqH = key, h
	return h
}

// insert creates the record of a key seen for the first time, as the
// youngest ghost.
func (t *table) insert(key cache.Key, now int64) uint32 {
	h, grown := t.recs.Alloc()
	*t.recs.At(h) = rec{key: key, lastSeen: now}
	was := t.index.Bytes()
	t.index.Insert(key, h)
	t.grew(grown + t.index.Bytes() - was)
	t.ghosts.pushFront(&t.recs, h)
	t.reqKey, t.reqH = key, h
	return h
}

// drop forgets a non-resident record entirely.
func (t *table) drop(h uint32) {
	rc := t.recs.At(h)
	t.ghosts.remove(&t.recs, h)
	if rc.ring != 0 {
		t.releaseRing(rc.ring)
	}
	if rc.res != 0 {
		t.releaseSide(rc)
	}
	t.index.Delete(rc.key, h)
	t.recs.Release(h)
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
		var grown int64
		rc.res, grown = t.sides.Alloc()
		t.grew(grown)
		*t.sides.At(rc.res) = resRec{scoreVer: -1, embVer: -1, pos: -1}
	}
	return t.sides.At(rc.res)
}

// releaseSide releases rc's side record and its embedding.
func (t *table) releaseSide(rc *rec) {
	if e := t.sides.At(rc.res).emb; e != 0 {
		t.embs.Release(e)
	}
	t.sides.Release(rc.res)
	rc.res = 0
}

// resident reports whether rc is a cached object.
func (t *table) resident(rc *rec) bool {
	return rc.res != 0 && t.sides.At(rc.res).pos >= 0
}

// admit moves a ghost of the given size to the front of the LRU list
// and the end of the dense array.
func (t *table) admit(h uint32, size int64) {
	rc := t.recs.At(h)
	t.ghosts.remove(&t.recs, h)
	t.lru.pushFront(&t.recs, h)
	sd := t.side(rc)
	sd.pos, sd.size = int32(len(t.dense)), size
	t.dense = append(t.dense, h)
}

// evict makes a resident the youngest ghost. keepSide says whether its
// side record still carries a live embedding.
func (t *table) evict(h uint32, keepSide bool) {
	rc := t.recs.At(h)
	sd := t.sides.At(rc.res)
	last := len(t.dense) - 1
	moved := t.dense[last]
	t.dense[sd.pos] = moved
	t.sides.At(t.recs.At(moved).res).pos = sd.pos
	t.dense = t.dense[:last]
	sd.pos = -1
	if !keepSide {
		t.releaseSide(rc)
	}
	t.lru.remove(&t.recs, h)
	t.ghosts.pushFront(&t.recs, h)
}

// emb returns sd's embedding (dim floats), giving it a slot if it has
// none.
func (t *table) emb(sd *resRec) []float64 {
	if sd.emb == 0 {
		var grown int64
		sd.emb, grown = t.embs.Alloc()
		t.grew(grown)
	}
	return t.embs.Run(sd.emb)
}

// setDim sizes the embedding slots for a model whose state is dim
// floats wide. A change of width drops every embedding with the slab
// that holds them; it walks the side records (residents and live
// ghosts), not the table.
func (t *table) setDim(dim int) {
	if t.dim == dim {
		return
	}
	if top := t.embs.Top(); top != 0 {
		c, _ := cache.SlabPos(top)
		t.grew(-8 * int64(c+1) * cache.SlabChunk * int64(t.dim))
	}
	t.dim = dim
	t.embs = cache.NewWideSlab[float64](dim)
	for h := uint32(1); h <= t.sides.Top(); h++ {
		sd := t.sides.At(h)
		sd.embVer, sd.emb = -1, 0
	}
}
