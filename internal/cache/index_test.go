package cache

import (
	"fmt"
	"testing"

	"raven/internal/stats"
)

// indexModel drives a HandleIndex the way its users do — keys live in a
// handle-addressed array, released handles are reissued — in lockstep
// with a map, its reference.
type indexModel struct {
	ix    *HandleIndex
	keyOf []Key // by handle; [0] is unused
	free  []uint32
	ref   map[Key]uint32
}

func newIndexModel() *indexModel {
	m := &indexModel{keyOf: []Key{0}, ref: map[Key]uint32{}}
	m.ix = NewHandleIndex(func(h uint32) Key { return m.keyOf[h] })
	return m
}

func (m *indexModel) insert(k Key) {
	var h uint32
	if n := len(m.free); n > 0 {
		h, m.free = m.free[n-1], m.free[:n-1]
	} else {
		h = uint32(len(m.keyOf))
		m.keyOf = append(m.keyOf, 0)
	}
	m.keyOf[h] = k
	m.ix.Insert(k, h)
	m.ref[k] = h
}

func (m *indexModel) delete(k Key) {
	h := m.ref[k]
	m.ix.Delete(k, h)
	delete(m.ref, k)
	m.free = append(m.free, h)
}

// apply runs one operation on key k: insert it when absent, delete it
// when present and del says so, else look it up.
func (m *indexModel) apply(k Key, del bool) {
	switch _, ok := m.ref[k]; {
	case !ok:
		m.insert(k)
	case del:
		m.delete(k)
	}
}

// check compares the index with the reference for every key of pool, and
// verifies the layout linear probing depends on: every key sits in its
// hash's sub-table, under its hash's bits, with no empty slot between its
// home slot and itself, every sub-table's count is its occupied slots,
// and Bytes is what the slots occupy.
func (m *indexModel) check(pool []Key) error {
	if m.ix.Len() != len(m.ref) {
		return fmt.Errorf("Len %d, reference %d", m.ix.Len(), len(m.ref))
	}
	for _, k := range pool {
		if got, want := m.ix.Find(k), m.ref[k]; got != want {
			return fmt.Errorf("Find(%d) = %d, reference %d", k, got, want)
		}
	}
	total, slots := 0, 0
	for si := range m.ix.subs {
		s := &m.ix.subs[si]
		slots += len(s.slots)
		mask := uint64(len(s.slots) - 1)
		n := 0
		for i, sl := range s.slots {
			if sl.h == 0 {
				continue
			}
			n++
			k := m.keyOf[sl.h]
			hv := m.ix.hash(k)
			if m.ix.sub(hv) != s || sl.hash != uint32(hv) {
				return fmt.Errorf("key %d is in sub-table %d under hash bits %#x, not its hash's %#x", k, si, sl.hash, hv)
			}
			for j := hv & mask; j != uint64(i); j = (j + 1) & mask {
				if s.slots[j].h == 0 {
					return fmt.Errorf("key %d at slot %d is cut off from its home slot %d", k, i, hv&mask)
				}
			}
		}
		if n != s.n || 4*n > 3*len(s.slots) {
			return fmt.Errorf("sub-table %d counts %d keys, holds %d in %d slots", si, s.n, n, len(s.slots))
		}
		total += n
	}
	if total != m.ix.Len() {
		return fmt.Errorf("sub-tables hold %d keys, Len %d", total, m.ix.Len())
	}
	if m.ix.Bytes() != slotBytes*int64(slots) {
		return fmt.Errorf("Bytes %d for %d slots", m.ix.Bytes(), slots)
	}
	return nil
}

// crowdedPool returns n keys that all hash to sub-table 0, the first
// half with their home in the last slot of any sub-table up to 64 slots,
// so probe sequences wrap past the end of the slot array, and two keys
// of other sub-tables.
func crowdedPool(ix *HandleIndex, n int) []Key {
	var pool []Key
	wrapping, others := 0, 0
	for k := Key(1); len(pool) < n+2; k++ {
		hv := ix.hash(k)
		switch {
		case hv>>(64-indexFanBits) != 0:
			if others < 2 {
				pool = append(pool, k)
				others++
			}
		case hv&63 == 63:
			if wrapping < n/2 {
				pool = append(pool, k)
				wrapping++
			}
		case len(pool)-others-wrapping < n-n/2:
			pool = append(pool, k)
		}
	}
	return pool
}

// TestHandleIndexMatchesMap drives one crowded sub-table through grow
// and shrink phases against a map, checking after every operation. The
// run must cover what a naive open-addressing table gets wrong: keys
// whose cluster wrapped past the end of the slot array, deletes from the
// middle of a cluster, and growth with keys in place.
func TestHandleIndexMatchesMap(t *testing.T) {
	m := newIndexModel()
	pool := crowdedPool(m.ix, 48)
	g := stats.NewRNG(17)
	var wrapped, midDeletes, grewFull int
	for step := 0; step < 20000; step++ {
		k := pool[g.Intn(len(pool))]
		del := g.Float64() < 0.3
		if (step/1000)%2 == 1 {
			del = g.Float64() < 0.7 // a shrink phase
		}
		s := m.ix.sub(m.ix.hash(k))
		if h, ok := m.ref[k]; ok && del {
			mask := len(s.slots) - 1
			for i, x := range s.slots {
				if x.h == h && s.slots[(i-1)&mask].h != 0 && s.slots[(i+1)&mask].h != 0 {
					midDeletes++
				}
			}
		}
		size, had := len(s.slots), s.n
		m.apply(k, del)
		if len(s.slots) > size && had > 0 {
			grewFull++
		}
		if err := m.check(pool); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i, sl := range s.slots {
			if sl.h != 0 && uint64(sl.hash)&uint64(len(s.slots)-1) > uint64(i) {
				wrapped++
			}
		}
	}
	if wrapped == 0 || midDeletes == 0 || grewFull == 0 {
		t.Errorf("coverage: %d wrapped placements, %d deletes from a cluster's middle, %d growths with keys in place; want each > 0",
			wrapped, midDeletes, grewFull)
	}
}

// TestHandleIndexGrowsOneSubTable: growing the index rehashes one
// sub-table at a time, so no insert moves more than a small fraction of
// the keys — a whole-table rehash would move them all at once. A growth
// step re-places the keys its sub-table held before the insert; every
// other sub-table keeps its slot array.
func TestHandleIndexGrowsOneSubTable(t *testing.T) {
	const keys = 100_000
	m := newIndexModel()
	var before [indexFan]indexSub
	steps, maxMoved := 0, 0
	for k := Key(0); k < keys; k++ {
		before = m.ix.subs
		m.insert(k)
		changed := 0
		for i := range m.ix.subs {
			s, was := &m.ix.subs[i], &before[i]
			if len(s.slots) == len(was.slots) && (len(s.slots) == 0 || &s.slots[0] == &was.slots[0]) {
				continue
			}
			changed++
			if s != m.ix.sub(m.ix.hash(k)) {
				t.Fatalf("key %d grew sub-table %d, not its own", k, i)
			}
			maxMoved = max(maxMoved, was.n)
		}
		if changed > 1 {
			t.Fatalf("key %d grew %d sub-tables", k, changed)
		}
		steps += changed
	}
	if err := m.check(nil); err != nil {
		t.Fatal(err)
	}
	if steps < indexFan || maxMoved > keys/64 {
		t.Errorf("%d growth steps moved at most %d slots each for %d keys; want at least %d steps of at most %d",
			steps, maxMoved, keys, indexFan, keys/64)
	}
	if per := float64(m.ix.Bytes()) / keys; per > slotBytes/0.375 {
		t.Errorf("%.1f B of slots per key; a sub-table is never under 3/8 full once it holds %d keys", per, indexMinSlots)
	}
}

// TestHandleIndexReset: a reset index finds none of its keys, and
// refilling it with as many keys reuses every sub-table's slots.
func TestHandleIndexReset(t *testing.T) {
	m := newIndexModel()
	for k := Key(0); k < 5000; k++ {
		m.insert(k)
	}
	before := m.ix.subs
	bytes := m.ix.Bytes()
	m.ix.Reset()
	for k, h := range m.ref {
		m.free = append(m.free, h)
		delete(m.ref, k)
	}
	if err := m.check([]Key{0, 1, 4999}); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
	for k := Key(0); k < 5000; k++ {
		m.insert(k)
	}
	if err := m.check(nil); err != nil {
		t.Fatalf("after refilling: %v", err)
	}
	for i := range m.ix.subs {
		if s, was := &m.ix.subs[i], &before[i]; len(s.slots) != len(was.slots) || len(s.slots) > 0 && &s.slots[0] != &was.slots[0] {
			t.Fatalf("refilling sub-table %d replaced its slots", i)
		}
	}
	if m.ix.Bytes() != bytes {
		t.Errorf("Bytes = %d after a reset and refill, %d before", m.ix.Bytes(), bytes)
	}
}

// TestHandleIndexHashBitsAreNotAMatch: a slot whose hash bits equal the
// probe's but whose record holds another key is passed over. Two keys
// that share 32 hash bits and a sub-table are too rare to draw, so the
// test swaps the key under an indexed handle instead.
func TestHandleIndexHashBitsAreNotAMatch(t *testing.T) {
	m := newIndexModel()
	m.insert(7)
	h := m.ref[7]
	m.keyOf[h] = 8
	if got := m.ix.Find(7); got != 0 {
		t.Errorf("Find(7) = %d, a handle whose record holds key 8", got)
	}
	m.keyOf[h] = 7
	if got := m.ix.Find(7); got != h {
		t.Errorf("Find(7) = %d, want %d", got, h)
	}
}

// FuzzHandleIndex applies operations decoded from the fuzzer's bytes to
// the index and the map reference, one byte each: the low six bits pick
// a key of a crowded pool (crowdedPool), the top bit whether a present
// key is deleted or looked up.
func FuzzHandleIndex(f *testing.F) {
	f.Add([]byte{})
	var fill, drain, churn []byte
	for k := byte(0); k < 50; k++ {
		fill = append(fill, k)
		drain = append(drain, k, 0x80|k)
	}
	g := stats.NewRNG(3)
	for i := 0; i < 600; i++ {
		churn = append(churn, byte(g.Intn(256)))
	}
	f.Add(fill)
	f.Add(append(fill, drain...))
	f.Add(churn)
	// Finding a crowded pool takes ~10^5 hashes: do it once, and give every
	// input's index the seed it was found under.
	seeded := newIndexModel()
	pool := crowdedPool(seeded.ix, 48)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := newIndexModel()
		m.ix.seed = seeded.ix.seed
		for i, op := range ops {
			m.apply(pool[int(op&63)%len(pool)], op&0x80 != 0)
			if err := m.check(pool); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	})
}
