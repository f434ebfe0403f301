package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"raven/internal/trace"
)

func ringOf(t *testing.T, seed int64, vnodes int, names ...string) *Ring {
	t.Helper()
	r := NewRing(seed, vnodes)
	for _, n := range names {
		if err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRingDoubleBuildIdentical: placement is a pure function of (seed,
// vnodes, member set) — two rings built in different insertion orders
// are byte-identical, point for point.
func TestRingDoubleBuildIdentical(t *testing.T) {
	a := ringOf(t, 42, 64, "n0:1", "n1:1", "n2:1", "n3:1")
	b := ringOf(t, 42, 64, "n3:1", "n1:1", "n0:1", "n2:1")
	if len(a.points) != len(b.points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.points), len(b.points))
	}
	for i := range a.points {
		if a.points[i] != b.points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a.points[i], b.points[i])
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprints differ for identical member sets")
	}
	if c := ringOf(t, 43, 64, "n0:1", "n1:1", "n2:1", "n3:1"); c.Fingerprint() == a.Fingerprint() {
		t.Error("different seeds produced the same fingerprint")
	}
	for key := trace.Key(0); key < 10_000; key++ {
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %d: owners differ", key)
		}
	}
}

// TestRingBoundedKeyMovement is the drain/join guarantee: a ring with
// one member more than an N-node ring moves at most ~keys/(N+1) keys
// (with slack for vnode variance), and every moved key moves TO the
// extra member. Every other key keeps its owner, so a ring built
// without the member is exactly the prior placement: no collateral
// reshuffling either way.
func TestRingBoundedKeyMovement(t *testing.T) {
	const keys = 50_000
	names := []string{"a", "b", "c", "d", "e"}
	without := ringOf(t, 7, 128, names...)
	with := ringOf(t, 7, 128, append(names, "f")...)

	// Member indices shift as names sort; compare ownership by name.
	ownerName := func(r *Ring, k int) string { return r.Members()[r.Lookup(trace.Key(k))] }
	moved := 0
	for k := 0; k < keys; k++ {
		before, now := ownerName(without, k), ownerName(with, k)
		if now == "f" {
			moved++
			continue
		}
		if now != before {
			t.Fatalf("key %d moved between old nodes: %s -> %s", k, before, now)
		}
	}
	bound := keys/(len(names)+1) + keys/10 // 1/(N+1) share + 10% slack
	if moved == 0 || moved > bound {
		t.Errorf("add moved %d keys, want in (0, %d]", moved, bound)
	}
}

// TestRingLookupN: the owner comes first, replicas are distinct, and
// the count caps at the membership.
func TestRingLookupN(t *testing.T) {
	r := ringOf(t, 1, 64, "a", "b", "c")
	var buf [8]int
	for key := trace.Key(0); key < 1000; key++ {
		got := r.LookupN(key, 5, buf[:0])
		if len(got) != 3 {
			t.Fatalf("key %d: %d replicas, want 3 (capped)", key, len(got))
		}
		if got[0] != r.Lookup(key) {
			t.Fatalf("key %d: replica[0]=%d, owner=%d", key, got[0], r.Lookup(key))
		}
		seen := map[int]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("key %d: duplicate replica %d", key, n)
			}
			seen[n] = true
		}
	}
	if got := NewRing(1, 64).LookupN(1, 2, buf[:0]); len(got) != 0 {
		t.Errorf("empty ring returned %d replicas", len(got))
	}
	if NewRing(1, 64).Lookup(1) != -1 {
		t.Error("empty ring Lookup != -1")
	}
}

// TestRingBalance: 128 vnodes keep the load spread sane — no node owns
// more than twice the fair share over a uniform keyspace.
func TestRingBalance(t *testing.T) {
	const keys = 100_000
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("node%d:7070", i)
	}
	r := ringOf(t, 99, 0, names...) // 0 vnodes = default
	counts := make([]int, len(names))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < keys; i++ {
		counts[r.Lookup(trace.Key(rng.Int63()))]++
	}
	fair := keys / len(names)
	for i, c := range counts {
		if c > 2*fair || c < fair/3 {
			t.Errorf("node %d owns %d keys, fair share %d", i, c, fair)
		}
	}
}

// TestRingLookupAllocFree: LookupN is on the router's per-request path
// and must not allocate.
func TestRingLookupAllocFree(t *testing.T) {
	r := ringOf(t, 3, 128, "a", "b", "c", "d")
	var buf [8]int
	key := trace.Key(12345)
	if n := testing.AllocsPerRun(200, func() {
		_ = r.LookupN(key, 3, buf[:0])
		key++
	}); n != 0 {
		t.Errorf("lookup path allocates %.1f per op, want 0", n)
	}
}

// TestRingErrors: duplicate and empty member names are rejected.
func TestRingErrors(t *testing.T) {
	r := ringOf(t, 1, 8, "a")
	if err := r.Add("a"); err == nil {
		t.Error("duplicate Add succeeded")
	}
	if err := r.Add(""); err == nil {
		t.Error("empty name accepted")
	}
}

// Lookup returns the owning member's index (into Members) for key, or
// -1 on an empty ring.
func (r *Ring) Lookup(key trace.Key) int {
	if len(r.points) == 0 {
		return -1
	}
	return int(r.points[r.search(r.hashKey(key))].node)
}
