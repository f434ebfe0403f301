package cache

import (
	"fmt"
	"testing"

	"raven/internal/stats"
)

// indexModel drives a HandleIndex the way its users do — keys live in a
// handle-addressed array, released handles are reissued — in lockstep
// with a map, its reference. It counts the events a test must cover and
// the records the index reads back.
type indexModel struct {
	ix    *HandleIndex
	keyOf []Key // by handle; [0] is unused
	free  []uint32
	ref   map[Key]uint32
	reads int

	wrapped, tombstones, reused, purges, grewFull int
}

func newIndexModel() *indexModel {
	m := &indexModel{keyOf: []Key{0}, ref: map[Key]uint32{}}
	m.ix = NewHandleIndex(func(h uint32) Key { m.reads++; return m.keyOf[h] })
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
	hv := m.ix.hash(k)
	s := m.ix.sub(hv)
	size, had, dead := len(s.groups), s.n, s.dead
	reuse := false
	if size > 0 {
		g, i := s.free(hv)
		reuse = g.ctrl>>(8*i)&0xff == ctrlDeleted
	}
	m.ix.Insert(k, h)
	m.ref[k] = h
	switch {
	case reuse:
		m.reused++
	case size > 0 && had+dead == maxLoad*size && len(s.groups) == size:
		m.purges++
	case len(s.groups) > size && had > 0:
		m.grewFull++
	}
	if gi, _ := m.slotOf(k); gi < hv>>7&uint64(len(s.groups)-1) {
		m.wrapped++
	}
}

func (m *indexModel) delete(k Key) {
	h := m.ref[k]
	s := m.ix.sub(m.ix.hash(k))
	dead := s.dead
	m.ix.Delete(k, h)
	delete(m.ref, k)
	m.free = append(m.free, h)
	if s.dead > dead {
		m.tombstones++
	}
}

// slotOf returns the group and slot that hold indexed key k.
func (m *indexModel) slotOf(k Key) (group uint64, slot int) {
	s := m.ix.sub(m.ix.hash(k))
	for gi := range s.groups {
		for i, h := range s.groups[gi].h {
			if h != 0 && m.keyOf[h] == k {
				return uint64(gi), i
			}
		}
	}
	panic(fmt.Sprintf("key %d is not indexed", k))
}

// pair returns the positions in keys of a random indexed key and a
// random key that is not: a delete and an insert that hold the count.
func (m *indexModel) pair(g *stats.RNG, keys []Key) [2]int {
	var ops [2]int
	for j, present := range []bool{true, false} {
		for {
			i := g.Intn(len(keys))
			if _, ok := m.ref[keys[i]]; ok == present {
				ops[j] = i
				break
			}
		}
	}
	return ops
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
// verifies the layout the probes depend on: every control byte is empty,
// deleted or full; a full slot's key hashes to its sub-table and its
// byte holds the hash's 7 bits; every group a probe for it passes on the
// way there has no empty slot; no group holds both an empty and a
// deleted slot; the counts of full and deleted slots are the sub-table's
// and fill at most 7/8 of its slots; and Bytes is what the groups and
// the spare buffer occupy, the spare large enough for any sub-table.
func (m *indexModel) check(pool []Key) error {
	if m.ix.Len() != len(m.ref) {
		return fmt.Errorf("Len %d, reference %d", m.ix.Len(), len(m.ref))
	}
	for _, k := range pool {
		if got, want := m.ix.Find(k), m.ref[k]; got != want {
			return fmt.Errorf("Find(%d) = %d, reference %d", k, got, want)
		}
	}
	total, groups, largest := 0, 0, 0
	for si := range m.ix.subs {
		s := &m.ix.subs[si]
		if len(s.groups)&(len(s.groups)-1) != 0 {
			return fmt.Errorf("sub-table %d has %d groups", si, len(s.groups))
		}
		groups += len(s.groups)
		largest = max(largest, len(s.groups))
		n, dead := 0, 0
		for gi := range s.groups {
			g := &s.groups[gi]
			var empty, deleted bool
			for i, h := range g.h {
				switch c := g.ctrl >> (8 * i) & 0xff; {
				case c == ctrlEmpty || c == ctrlDeleted:
					if h != 0 {
						return fmt.Errorf("sub-table %d group %d slot %d is not full and holds handle %d", si, gi, i, h)
					}
					if c == ctrlEmpty {
						empty = true
					} else {
						deleted = true
						dead++
					}
				case c&ctrlFull == 0:
					return fmt.Errorf("sub-table %d group %d slot %d has control byte %#x", si, gi, i, c)
				default:
					n++
					k := m.keyOf[h]
					hv := m.ix.hash(k)
					if m.ix.sub(hv) != s || c != h2(hv) {
						return fmt.Errorf("key %d is in sub-table %d under control byte %#x, not its hash's %#x", k, si, c, hv)
					}
					for p := newProbe(hv, len(s.groups)); p.g != uint64(gi); p.next() {
						if p.step >= uint64(len(s.groups)) {
							return fmt.Errorf("key %d in group %d is off its probe sequence", k, gi)
						}
						if s.groups[p.g].matchEmpty() != 0 {
							return fmt.Errorf("key %d in group %d is cut off by an empty slot in group %d", k, gi, p.g)
						}
					}
				}
			}
			if empty && deleted {
				return fmt.Errorf("sub-table %d group %d holds an empty and a deleted slot", si, gi)
			}
		}
		if n != s.n || dead != s.dead || n+dead > maxLoad*len(s.groups) {
			return fmt.Errorf("sub-table %d counts %d keys and %d tombstones, holds %d and %d in %d groups",
				si, s.n, s.dead, n, dead, len(s.groups))
		}
		total += n
	}
	if total != m.ix.Len() {
		return fmt.Errorf("sub-tables hold %d keys, Len %d", total, m.ix.Len())
	}
	if cap(m.ix.spare) < maxLoad*largest {
		return fmt.Errorf("the spare buffer holds %d handles, the largest sub-table %d", cap(m.ix.spare), maxLoad*largest)
	}
	if want := groupBytes*int64(groups) + spareBytes*int64(cap(m.ix.spare)); m.ix.Bytes() != want {
		return fmt.Errorf("Bytes %d for %d groups and a spare of %d handles, want %d", m.ix.Bytes(), groups, cap(m.ix.spare), want)
	}
	return nil
}

// crowdedPool returns n keys that all hash to sub-table 0, the first
// half with their home in the last group of any sub-table up to 8
// groups, so probe sequences wrap past the end of the group array, then
// two keys of other sub-tables.
func crowdedPool(ix *HandleIndex, n int) []Key {
	var pool, others []Key
	wrapping := 0
	for k := Key(1); len(pool) < n || len(others) < 2; k++ {
		hv := ix.hash(k)
		switch {
		case hv>>(64-indexFanBits) != 0:
			if len(others) < 2 {
				others = append(others, k)
			}
		case hv>>7&7 == 7:
			if wrapping < n/2 {
				pool = append(pool, k)
				wrapping++
			}
		case len(pool)-wrapping < n-n/2:
			pool = append(pool, k)
		}
	}
	return append(pool, others...)
}

// TestHandleIndexMatchesMap drives one crowded sub-table through grow
// and shrink phases against a map, checking after every operation. The
// run must cover what a naive table of groups gets wrong: keys whose
// probe wrapped past the end of the group array, deletes that must
// leave a tombstone, inserts that reuse one, rebuilds in place, and
// growth with keys in place.
func TestHandleIndexMatchesMap(t *testing.T) {
	m := newIndexModel()
	pool := crowdedPool(m.ix, 48)
	g := stats.NewRNG(17)
	// First 13 keys held in 2 groups by delete+insert pairs: the
	// sub-table stays near its limit, where an insert that finds no
	// empty slot to spare purges its tombstones.
	for _, k := range pool[:13] {
		m.insert(k)
	}
	for step := 0; step < 5000; step++ {
		for _, i := range m.pair(g, pool[:48]) {
			m.apply(pool[i], true)
			if err := m.check(pool); err != nil {
				t.Fatalf("pair %d: %v", step, err)
			}
		}
	}
	for step := 0; step < 10000; step++ {
		k := pool[g.Intn(len(pool))]
		del := g.Float64() < 0.3
		if (step/1000)%2 == 1 {
			del = g.Float64() < 0.7 // a shrink phase
		}
		m.apply(k, del)
		if err := m.check(pool); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if m.wrapped == 0 || m.tombstones == 0 || m.reused == 0 || m.purges == 0 || m.grewFull == 0 {
		t.Errorf("coverage: %d wrapped placements, %d tombstones, %d reused, %d rebuilds in place, %d growths with keys in place; want each > 0",
			m.wrapped, m.tombstones, m.reused, m.purges, m.grewFull)
	}
}

// TestHandleIndexGrowsOneSubTable: growing the index rehashes one
// sub-table at a time, so no insert moves more than a small fraction of
// the keys — a whole-table rehash would move them all at once. A growth
// step re-places the keys its sub-table held before the insert; every
// other sub-table keeps its group array.
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
			if len(s.groups) == len(was.groups) && (len(s.groups) == 0 || &s.groups[0] == &was.groups[0]) {
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
		t.Errorf("%d growth steps moved at most %d keys each for %d keys; want at least %d steps of at most %d",
			steps, maxMoved, keys, indexFan, keys/64)
	}
	groups := (m.ix.Bytes() - spareBytes*int64(cap(m.ix.spare))) / groupBytes
	if per, most := float64(groupBytes*groups)/keys, float64(groupBytes)/(groupSlots*7.0/16); per > most {
		t.Errorf("%.2f B of groups per key, over %.2f: a sub-table is never under 7/16 full once it holds %d keys", per, most, maxLoad)
	}
}

// TestHandleIndexReset: a reset index finds none of its keys, and
// refilling it with as many keys reuses every sub-table's groups.
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
		if s, was := &m.ix.subs[i], &before[i]; len(s.groups) != len(was.groups) || len(s.groups) > 0 && &s.groups[0] != &was.groups[0] {
			t.Fatalf("refilling sub-table %d replaced its groups", i)
		}
	}
	if m.ix.Bytes() != bytes {
		t.Errorf("Bytes = %d after a reset and refill, %d before", m.ix.Bytes(), bytes)
	}
}

// TestHandleIndexHashBitsAreNotAMatch: a slot whose 7 hash bits equal
// the probe's but whose record holds another key is passed over, and a
// probe reads back only the records whose bits match. Keys a and b share
// a sub-table and 7 bits; c has other bits.
func TestHandleIndexHashBitsAreNotAMatch(t *testing.T) {
	m := newIndexModel()
	var a, b, c Key
	for k := Key(1); a == 0 || b == 0 || c == 0; k++ {
		hv := m.ix.hash(k)
		switch {
		case hv>>(64-indexFanBits) != 0:
		case a == 0:
			a = k
		case b == 0 && h2(hv) == h2(m.ix.hash(a)):
			b = k
		case c == 0 && h2(hv) != h2(m.ix.hash(a)):
			c = k
		}
	}
	for _, k := range []Key{a, b, c} {
		m.insert(k)
	}
	for _, tc := range []struct {
		k     Key
		reads int
	}{{a, 1}, {b, 2}, {c, 1}} {
		if m.reads = 0; m.ix.Find(tc.k) != m.ref[tc.k] || m.reads > tc.reads {
			t.Errorf("Find(%d) = %d reading %d records; want %d reading at most %d", tc.k, m.ix.Find(tc.k), m.reads, m.ref[tc.k], tc.reads)
		}
	}
	// The key under a's handle changes: a's bits still match, its record
	// no longer does.
	h := m.ref[a]
	m.keyOf[h] = c + 1
	if got := m.ix.Find(a); got != 0 {
		t.Errorf("Find(%d) = %d, a handle whose record holds key %d", a, got, c+1)
	}
	m.keyOf[h] = a
	m.delete(b)
	if got := m.ix.Find(a); got != h {
		t.Errorf("Find(%d) = %d after deleting %d, want %d", a, got, b, h)
	}
}

// TestHandleIndexSteadyState: at a constant key count, delete+insert
// pairs leave tombstones that the sub-table purges in place, and over
// 20 times its capacity of pairs after a warm-up the index allocates
// nothing and its Bytes stay where they were. 100 live keys keep a
// sub-table of 16 groups near its limit of 112, short of the 104 past
// which it would double, so tombstones soon force purges. A pair deletes
// the oldest key and inserts the one deleted longest ago.
func TestHandleIndexSteadyState(t *testing.T) {
	const live = 100
	m := newIndexModel()
	pool := crowdedPool(m.ix, 2*live)[:2*live]
	for _, k := range pool[:live] {
		m.insert(k)
	}
	next := 0
	pair := func() {
		m.delete(pool[next%len(pool)])
		m.insert(pool[(next+live)%len(pool)])
		next++
	}
	s := m.ix.sub(m.ix.hash(pool[0]))
	capacity := maxLoad * len(s.groups)
	if capacity != 112 {
		t.Fatalf("%d keys fill a sub-table of capacity %d, want 112", live, capacity)
	}
	for range 2 * len(pool) {
		pair()
	}
	bytes, purges := m.ix.Bytes(), m.purges
	if allocs := testing.AllocsPerRun(20*capacity, pair); allocs != 0 {
		t.Errorf("a delete+insert pair at a steady key count allocates %.3f times", allocs)
	}
	if m.ix.Bytes() != bytes {
		t.Errorf("Bytes moved from %d to %d at a steady key count", bytes, m.ix.Bytes())
	}
	if m.purges == purges {
		t.Errorf("no purge in %d pairs: the run left tombstones unexercised", 20*capacity)
	}
	if err := m.check(pool); err != nil {
		t.Fatal(err)
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
	// Hold 26 keys of the crowded sub-table in its 4 groups, deleting and
	// inserting at random until it has purged its tombstones twice.
	var purge []byte
	op := func(b byte) {
		purge = append(purge, b)
		seeded.apply(pool[b&63], b&0x80 != 0)
	}
	for i := byte(0); i < 26; i++ {
		op(i)
	}
	for i := 0; seeded.purges < 2; i++ {
		if i == 10000 {
			f.Fatal("10000 delete+insert pairs in a crowded sub-table purged it fewer than twice")
		}
		for _, k := range seeded.pair(g, pool[:48]) {
			op(0x80 | byte(k))
		}
	}
	f.Add(purge)
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
