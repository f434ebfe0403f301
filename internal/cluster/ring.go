// Package cluster is the fault-tolerant cluster tier: a consistent-hash
// router that spreads keys over N ravencached nodes and keeps serving
// through node failures. It has four parts:
//
//   - Ring (ring.go): a deterministic consistent-hash ring with virtual
//     nodes. Placement is a pure function of (seed, vnode count, member
//     set), so two routers built with the same inputs agree on every
//     key's owner — byte-identical, fingerprintable, and property-tested
//     for bounded key movement on membership change.
//   - Breaker (health.go): a per-node circuit breaker mirroring the
//     policy's Healthy→Degraded→Fallback model-lifecycle machine
//     (internal/core): its state is derived from one consecutive-failure
//     count, Fallback ejects the node from routing, and half-open probes
//     re-admit it.
//   - node (node.go): one backend's address, breaker, bounded client
//     pool, and per-node metrics.
//   - Router (router.go): the request path — a burst of requests is
//     grouped by owner node and forwarded as one batch per node under
//     one timeout; what a failed batch left unanswered goes to the
//     keys' next ring replicas in up to two more rounds of the same
//     burst, each one batch per node after one backoff; and health
//     probing.
//     Router implements server.Backend and server.BatchBackend, so the
//     router process reuses the entire hardened protocol loop.
package cluster

import (
	"fmt"
	"sort"

	"raven/internal/trace"
)

// defaultVNodes is the virtual-node count per member of the router's
// ring. 128 points per node keeps the max/mean load ratio within a few
// percent for small fleets while the ring stays cache-resident.
const defaultVNodes = 128

// mix64 is a splitmix64-style finalizer: the ring's only hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64 hashes a member name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringPoint is one virtual node: a position on the 64-bit circle owned
// by a member (an index into Ring.names).
type ringPoint struct {
	hash uint64
	node int32
}

// Ring is a deterministic consistent-hash ring. Placement depends only
// on (seed, vnodes, member set) — never on insertion order, map
// iteration, or wall clock — so every router replica computes the same
// ownership and Fingerprint proves it. LookupN is pure and
// allocation-free (it is on the router's per-request path;
// TestRingLookupAllocFree holds it to 0 allocs/op).
//
// Ring is not goroutine-safe; Router builds its ring once and only
// reads it afterwards.
type Ring struct {
	seed   int64
	vnodes int
	names  []string // members, sorted; ringPoint.node indexes this
	points []ringPoint
}

// NewRing creates an empty ring. vnodes <= 0 applies defaultVNodes.
func NewRing(seed int64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// Members returns the member names, sorted. The slice is shared; do not
// mutate.
func (r *Ring) Members() []string { return r.names }

// Add inserts a member and rebuilds the ring. Adding an existing member
// is an error (a duplicate would double the member's point share).
func (r *Ring) Add(name string) error {
	if name == "" {
		return fmt.Errorf("cluster: empty member name")
	}
	i := sort.SearchStrings(r.names, name)
	if i < len(r.names) && r.names[i] == name {
		return fmt.Errorf("cluster: member %q already on the ring", name)
	}
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	r.build()
	return nil
}

// build recomputes the point list from scratch. Points are sorted by
// (hash, node) — the node tie-break makes the order total, so two
// builds of the same member set produce byte-identical rings even in
// the (astronomically unlikely) event of a hash collision.
func (r *Ring) build() {
	r.points = r.points[:0]
	if cap(r.points) < len(r.names)*r.vnodes {
		r.points = make([]ringPoint, 0, len(r.names)*r.vnodes)
	}
	for ni, name := range r.names {
		base := mix64(fnv64(name) ^ uint64(r.seed))
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: mix64(base + uint64(v)*0x9e3779b97f4a7c15),
				node: int32(ni),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// hashKey places a key on the circle. The seed participates so distinct
// rings shear keys independently.
func (r *Ring) hashKey(key trace.Key) uint64 {
	return mix64(uint64(key) ^ uint64(r.seed)*0x9e3779b97f4a7c15)
}

// search returns the index of the first point clockwise from h
// (wrapping). Hand-rolled binary search keeps the lookup path free of
// closure allocations.
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		return 0
	}
	return lo
}

// LookupN appends the indices of the first n distinct members clockwise
// from key's position — the owner first, then its failover replicas —
// and returns the extended slice. n is capped at the member count.
// Passing a stack-backed dst keeps the call allocation-free.
func (r *Ring) LookupN(key trace.Key, n int, dst []int) []int {
	if len(r.points) == 0 || n <= 0 {
		return dst
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	start := r.search(r.hashKey(key))
	base := len(dst)
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		cand := int(r.points[(start+i)%len(r.points)].node)
		seen := false
		for _, d := range dst[base:] {
			if d == cand {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, cand) // into the caller's fixed-capacity buffer
		}
	}
	return dst
}

// Fingerprint folds the entire point list into one value. Two rings
// with equal fingerprints have byte-identical placement; the chaos test
// compares fingerprints across independently built routers.
func (r *Ring) Fingerprint() uint64 {
	h := mix64(uint64(r.seed) ^ uint64(len(r.points))<<32 ^ uint64(r.vnodes))
	for _, p := range r.points {
		h = mix64(h ^ p.hash ^ uint64(p.node)<<48)
	}
	return h
}
