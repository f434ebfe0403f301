package cache

import (
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// HandleIndex resolves a key to the nonzero uint32 handle of the record
// that holds it. The keys live in the caller's records, read back
// through keyOf; the index stores only handles, in groups of eight
// slots beside one control byte per slot that says whether the slot is
// empty, deleted, or full and then holds 7 bits of its key's hash. A
// group is 40 bytes and a sub-table fills to 7/8 of its slots before it
// doubles, so an indexed key costs 5.7–11.4 B as keys are added (12.3 B
// at most after a doubling over tombstones) instead of a map entry that
// stores the key a second time. A probe compares a group's eight
// control bytes with its key's 7 bits in one word (SWAR, as the Go
// runtime's swiss maps do) and reads back only the records whose bits
// match; a rebuild reads every key back to rehash it.
//
// Three properties of the Go map it replaces are kept:
//
//   - Hash-flood resistance: the hash is hash/maphash under a seed drawn
//     when the index is made, so a client that picks the keys (the
//     servers take arbitrary 64-bit keys off the wire) cannot aim them at
//     one probe sequence.
//   - Bounded growth: the top byte of the hash picks one of 256
//     sub-tables, each an open-addressing table of groups that rebuilds
//     on its own. An insert rehashes at most one sub-table, about 1/256
//     of the keys; it never copies the whole index.
//   - Determinism: nothing iterates the index, so which seed was drawn
//     moves no observable byte. Callers list their keys from their own
//     records.
//
// A delete leaves a tombstone only in a group with no empty slot, the
// one case a probe may have passed the group. When an insert finds no
// empty slot to spare, the sub-table is rebuilt: in place, through one
// spare buffer of handles the index keeps, when tombstones hold at
// least 1/16 of its slots, else at twice the size — so it doubles only
// when live keys, not tombstones, fill over 13/16 of its slots, and at a
// steady key count the index allocates nothing.
//
// The zero HandleIndex is not usable; make one with NewHandleIndex.
type HandleIndex struct {
	keyOf func(h uint32) Key
	seed  maphash.Seed
	n     int
	bytes int64 // what the groups and the spare buffer occupy
	// spare holds a sub-table's live handles while it is rebuilt; its
	// capacity covers the largest sub-table's, so a rebuild in place
	// allocates nothing.
	spare []uint32
	subs  [indexFan]indexSub
}

const (
	indexFanBits = 8
	indexFan     = 1 << indexFanBits
	groupSlots   = 8
	// maxLoad is the slots per group that may be full or deleted: 7/8.
	maxLoad    = groupSlots - 1
	groupBytes = int64(unsafe.Sizeof(indexGroup{}))
	// rebuildBatch is how many keys a rebuild reads back before it
	// hashes them.
	rebuildBatch = 16
	spareBytes   = int64(unsafe.Sizeof(uint32(0)))
)

// Control bytes: ctrlEmpty is the zero value, so a new or cleared group
// is empty; a full slot's byte is ctrlFull | 7 hash bits.
const (
	ctrlEmpty   = 0x00
	ctrlDeleted = 0x01
	ctrlFull    = 0x80

	bitsetLSB = 0x0101010101010101
	bitsetLow = 0x7f7f7f7f7f7f7f7f
	bitsetMSB = 0x8080808080808080
)

type indexSub struct {
	groups []indexGroup // the length is 0 or a power of two
	n      int          // full slots
	dead   int          // deleted slots
}

// indexGroup is eight slots: their control bytes, slot i in byte i of
// ctrl, and their handles (0 unless full).
type indexGroup struct {
	ctrl uint64
	h    [groupSlots]uint32
}

// A match is a set of slots of one group, the top bit of byte i for
// slot i.
type match uint64

// first returns the lowest slot of m, which is not empty; the mask only
// spares the bounds check of the handle it indexes.
func (m match) first() int { return bits.TrailingZeros64(uint64(m)) >> 3 & (groupSlots - 1) }

// matchH2 returns the slots whose control byte is c. The test for a zero
// byte is exact: it carries no borrow from one byte into the next.
func (g *indexGroup) matchH2(c uint64) match {
	v := g.ctrl ^ bitsetLSB*c
	return match(^((v&bitsetLow + bitsetLow) | v) & bitsetMSB)
}

// matchEmpty returns the empty slots: top bit clear, and bit 0 too.
func (g *indexGroup) matchEmpty() match { return match(^(g.ctrl | g.ctrl<<7) & bitsetMSB) }

// matchFree returns the empty and the deleted slots.
func (g *indexGroup) matchFree() match { return match(^g.ctrl & bitsetMSB) }

// matchFull returns the full slots.
func (g *indexGroup) matchFull() match { return match(g.ctrl & bitsetMSB) }

func (g *indexGroup) set(i int, c uint64, h uint32) {
	g.ctrl = g.ctrl&^(0xff<<(8*i)) | c<<(8*i)
	g.h[i] = h
}

// NewHandleIndex returns an empty index; keyOf reads the key of an
// indexed handle from the caller's records.
func NewHandleIndex(keyOf func(h uint32) Key) *HandleIndex {
	return &HandleIndex{keyOf: keyOf, seed: maphash.MakeSeed()}
}

func (ix *HandleIndex) hash(k Key) uint64 { return maphash.Comparable(ix.seed, k) }

func (ix *HandleIndex) sub(hv uint64) *indexSub { return &ix.subs[hv>>(64-indexFanBits)] }

// h2 is the control byte of a full slot holding a key of hash hv.
func h2(hv uint64) uint64 { return ctrlFull | hv&0x7f }

// A probe visits the groups of a sub-table from hv's home group at
// triangular offsets (0, 1, 3, 6, …), which over a power-of-two group
// count reach every group.
type probe struct{ g, mask, step uint64 }

func newProbe(hv uint64, groups int) probe {
	mask := uint64(groups - 1)
	return probe{g: hv >> 7 & mask, mask: mask}
}

func (p *probe) next() {
	p.step++
	p.g = (p.g + p.step) & p.mask
}

// Len returns the number of indexed keys.
func (ix *HandleIndex) Len() int { return ix.n }

// Find returns k's handle, 0 when k is not indexed.
func (ix *HandleIndex) Find(k Key) uint32 {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if s.n == 0 {
		return 0
	}
	c := h2(hv)
	for p := newProbe(hv, len(s.groups)); ; p.next() {
		g := &s.groups[p.g]
		for m := g.matchH2(c); m != 0; m &= m - 1 {
			if h := g.h[m.first()]; ix.keyOf(h) == k {
				return h
			}
		}
		if g.matchEmpty() != 0 {
			return 0
		}
	}
}

// Reset empties the index. Every sub-table keeps its groups, so refilling
// it to its old size allocates nothing.
func (ix *HandleIndex) Reset() {
	for i := range ix.subs {
		s := &ix.subs[i]
		clear(s.groups)
		s.n, s.dead = 0, 0
	}
	ix.n = 0
}

// Bytes returns the bytes the index's groups and spare buffer occupy.
func (ix *HandleIndex) Bytes() int64 { return ix.bytes }

// Insert indexes k under handle h; k must not be indexed yet.
func (ix *HandleIndex) Insert(k Key, h uint32) {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if len(s.groups) == 0 {
		ix.rebuild(s)
	}
	g, i := s.free(hv)
	if g.ctrl>>(8*i)&0xff == ctrlDeleted {
		s.dead--
	} else if s.n+s.dead >= maxLoad*len(s.groups) {
		ix.rebuild(s)
		g, i = s.free(hv)
	}
	g.set(i, h2(hv), h)
	s.n++
	ix.n++
}

// free returns the first empty or deleted slot of hv's probe sequence.
func (s *indexSub) free(hv uint64) (*indexGroup, int) {
	for p := newProbe(hv, len(s.groups)); ; p.next() {
		g := &s.groups[p.g]
		if m := g.matchFree(); m != 0 {
			return g, m.first()
		}
	}
}

// rebuild rehashes sub-table s, which has no empty slot to spare, into
// groups cleared of tombstones: its own when tombstones hold at least
// 1/16 of its slots, else twice as many. Each key is read back through
// keyOf.
func (ix *HandleIndex) rebuild(s *indexSub) {
	live := ix.spare[:0]
	for gi := range s.groups {
		g := &s.groups[gi]
		for m := g.matchFull(); m != 0; m &= m - 1 {
			live = append(live, g.h[m.first()])
		}
	}
	if size := len(s.groups); size > 0 && 2*s.dead >= size {
		clear(s.groups)
	} else {
		size = max(2*size, 1)
		ix.bytes += groupBytes * int64(size-len(s.groups))
		s.groups = make([]indexGroup, size)
		if need := maxLoad * size; cap(ix.spare) < need {
			ix.bytes += spareBytes * int64(need-cap(ix.spare))
			ix.spare = make([]uint32, 0, need)
		}
	}
	s.dead = 0
	// The keys are read back a batch at a time: a batch's record reads
	// are independent loads, so their cache misses overlap.
	var keys [rebuildBatch]Key
	for len(live) > 0 {
		batch := live[:min(rebuildBatch, len(live))]
		for j, h := range batch {
			keys[j] = ix.keyOf(h)
		}
		for j, h := range batch {
			hv := ix.hash(keys[j])
			g, i := s.free(hv)
			g.set(i, h2(hv), h)
		}
		live = live[len(batch):]
	}
}

// Delete removes k, indexed under handle h. The slot goes back to empty
// when its group has an empty slot, since then no probe has passed the
// group, and to deleted otherwise.
func (ix *HandleIndex) Delete(k Key, h uint32) {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if s.n == 0 {
		return
	}
	c := h2(hv)
	for p := newProbe(hv, len(s.groups)); ; p.next() {
		g := &s.groups[p.g]
		for m := g.matchH2(c); m != 0; m &= m - 1 {
			if i := m.first(); g.h[i] == h {
				if g.matchEmpty() != 0 {
					g.set(i, ctrlEmpty, 0)
				} else {
					g.set(i, ctrlDeleted, 0)
					s.dead++
				}
				s.n--
				ix.n--
				return
			}
		}
		if g.matchEmpty() != 0 {
			return
		}
	}
}
