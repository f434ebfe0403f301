package cache

import "hash/maphash"

// HandleIndex resolves a key to the nonzero uint32 handle of the record
// that holds it. The keys live in the caller's records, read back
// through keyOf; a slot holds the handle and the low 32 bits of its
// key's hash, so an indexed key costs one 8-byte slot, at most 3/4 of
// the slots in use, instead of a map entry that stores the key a second
// time. The hash bits spare every read of a record but the one the
// caller asked for: a probe skips a slot whose bits differ, and growth
// and deletion find a slot's home from its bits, not from its key.
//
// Three properties of the Go map it replaces are kept:
//
//   - Hash-flood resistance: the hash is hash/maphash under a seed drawn
//     when the index is made, so a client that picks the keys (the
//     servers take arbitrary 64-bit keys off the wire) cannot aim them at
//     one probe sequence.
//   - Bounded growth: the top byte of the hash picks one of 256
//     sub-tables, each an open-addressing table with linear probing that
//     doubles on its own. An insert re-places at most one sub-table's
//     slots, about 1/256 of the keys; it never copies the whole index.
//   - Determinism: nothing iterates the index, so which seed was drawn
//     moves no observable byte. Callers list their keys from their own
//     records.
//
// The zero HandleIndex is not usable; make one with NewHandleIndex.
type HandleIndex struct {
	keyOf func(h uint32) Key
	seed  maphash.Seed
	n     int
	bytes int64 // what the sub-tables' slots occupy
	subs  [indexFan]indexSub
}

const (
	indexFanBits  = 8
	indexFan      = 1 << indexFanBits
	indexMinSlots = 8
	slotBytes     = 8
)

type indexSub struct {
	slots []indexSlot // h == 0: empty; the length is 0 or a power of two
	n     int
}

// indexSlot is a handle and the low half of its key's hash. A sub-table
// never has 2^32 slots, so the bits name the slot's home at every size.
type indexSlot struct{ h, hash uint32 }

// NewHandleIndex returns an empty index; keyOf reads the key of an
// indexed handle from the caller's records.
func NewHandleIndex(keyOf func(h uint32) Key) *HandleIndex {
	return &HandleIndex{keyOf: keyOf, seed: maphash.MakeSeed()}
}

func (ix *HandleIndex) hash(k Key) uint64 { return maphash.Comparable(ix.seed, k) }

func (ix *HandleIndex) sub(hv uint64) *indexSub { return &ix.subs[hv>>(64-indexFanBits)] }

// Len returns the number of indexed keys.
func (ix *HandleIndex) Len() int { return ix.n }

// Find returns k's handle, 0 when k is not indexed.
func (ix *HandleIndex) Find(k Key) uint32 {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if s.n == 0 {
		return 0
	}
	mask := uint64(len(s.slots) - 1)
	for i := hv & mask; ; i = (i + 1) & mask {
		if sl := s.slots[i]; sl.h == 0 || sl.hash == uint32(hv) && ix.keyOf(sl.h) == k {
			return sl.h
		}
	}
}

// Reset empties the index. Every sub-table keeps its slots, so refilling
// it to its old size allocates nothing.
func (ix *HandleIndex) Reset() {
	for i := range ix.subs {
		clear(ix.subs[i].slots)
		ix.subs[i].n = 0
	}
	ix.n = 0
}

// Bytes returns the bytes the index's slots occupy.
func (ix *HandleIndex) Bytes() int64 { return ix.bytes }

// Insert indexes k under handle h; k must not be indexed yet.
func (ix *HandleIndex) Insert(k Key, h uint32) {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if 4*(s.n+1) > 3*len(s.slots) {
		ix.grow(s)
	}
	s.place(hv, h)
	s.n++
	ix.n++
}

// place puts h in the first free slot of hv's probe sequence.
func (s *indexSub) place(hv uint64, h uint32) {
	mask := uint64(len(s.slots) - 1)
	i := hv & mask
	for s.slots[i].h != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = indexSlot{h, uint32(hv)}
}

// grow doubles sub-table s and re-places its slots, and only its slots,
// by their hash bits.
func (ix *HandleIndex) grow(s *indexSub) {
	old := s.slots
	s.slots = make([]indexSlot, max(2*len(old), indexMinSlots))
	for _, sl := range old {
		if sl.h != 0 {
			s.place(uint64(sl.hash), sl.h)
		}
	}
	ix.bytes += slotBytes * int64(len(s.slots)-len(old))
}

// Delete removes k, indexed under handle h. The hole is closed by
// backward shift, so no tombstone is left behind and a probe still stops
// at the first empty slot.
func (ix *HandleIndex) Delete(k Key, h uint32) {
	hv := ix.hash(k)
	s := ix.sub(hv)
	if s.n == 0 {
		return
	}
	mask := uint64(len(s.slots) - 1)
	i := hv & mask
	for s.slots[i].h != h {
		if s.slots[i].h == 0 {
			return
		}
		i = (i + 1) & mask
	}
	// Pull each later member of the cluster into the hole unless the hole
	// lies before its home slot, where a probe for it would not look.
	for j := (i + 1) & mask; s.slots[j].h != 0; j = (j + 1) & mask {
		home := uint64(s.slots[j].hash) & mask
		if (j-home)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = indexSlot{}
	s.n--
	ix.n--
}
