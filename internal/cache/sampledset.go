package cache

import "raven/internal/stats"

// SampledSet is the shared metadata container for sampling-based
// policies: O(1) insert, delete and membership plus O(1) uniform
// random candidate selection, implemented as a swap-delete slice with
// an index map (§4.3.1: "randomly samples cached objects to get
// eviction candidates").
type SampledSet[V any] struct {
	keys    []Key
	vals    []V
	index   map[Key]int
	sampler IndexSampler
}

// NewSampledSet creates an empty set.
func NewSampledSet[V any]() *SampledSet[V] {
	return &SampledSet[V]{index: make(map[Key]int, 1024)}
}

// Len returns the number of stored keys.
func (s *SampledSet[V]) Len() int { return len(s.keys) }

// Add stores v under k, replacing any existing value.
func (s *SampledSet[V]) Add(k Key, v V) {
	if i, ok := s.index[k]; ok {
		s.vals[i] = v
		return
	}
	s.index[k] = len(s.keys)
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, v)
}

// Get returns the value stored under k.
func (s *SampledSet[V]) Get(k Key) (V, bool) {
	if i, ok := s.index[k]; ok {
		return s.vals[i], true
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to k's value for in-place updates, or nil if
// absent. The pointer is invalidated by the next Add or Remove.
func (s *SampledSet[V]) Ref(k Key) *V {
	if i, ok := s.index[k]; ok {
		return &s.vals[i]
	}
	return nil
}

// Remove deletes k if present.
func (s *SampledSet[V]) Remove(k Key) {
	i, ok := s.index[k]
	if !ok {
		return
	}
	last := len(s.keys) - 1
	s.keys[i] = s.keys[last]
	s.vals[i] = s.vals[last]
	s.index[s.keys[i]] = i
	// Zero the vacated slot: the backing array outlives the truncation,
	// and a V holding a pointer would stay reachable from it.
	var zero V
	s.vals[last] = zero
	s.keys = s.keys[:last]
	s.vals = s.vals[:last]
	delete(s.index, k)
}

// At returns the i-th key and a pointer to its value. The pointer is
// invalidated by the next Add or Remove.
func (s *SampledSet[V]) At(i int) (Key, *V) { return s.keys[i], &s.vals[i] }

// Sample writes up to n distinct random indices into dst and returns
// it; see IndexSampler.Sample.
func (s *SampledSet[V]) Sample(g *stats.RNG, n int, dst []int) []int {
	return s.sampler.Sample(g, len(s.keys), n, dst)
}

// IndexSampler draws distinct uniform indices from a dense array. It is
// SampledSet's sampling half, usable on its own by a container that
// keeps its own dense array (core.Raven's record table).
//
// perm is an identity permutation grown lazily (always restored to
// identity after each Sample); swaps records the swap targets of one
// partial Fisher-Yates pass so it can be undone.
type IndexSampler struct {
	perm  []int
	swaps []int
}

// Sample writes up to n distinct random indices in [0, m) into dst and
// returns it. When m <= n all indices are returned, in order, and g is
// not consulted. Distinctness uses a partial Fisher-Yates over the
// scratch permutation, so repeated calls do not allocate.
func (s *IndexSampler) Sample(g *stats.RNG, m, n int, dst []int) []int {
	dst = dst[:0]
	if m == 0 {
		return dst
	}
	if n >= m {
		for i := 0; i < m; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	for len(s.perm) < m {
		s.perm = append(s.perm, len(s.perm))
	}
	s.swaps = s.swaps[:0]
	for k := 0; k < n; k++ {
		i := k + g.Intn(m-k)
		s.perm[k], s.perm[i] = s.perm[i], s.perm[k]
		s.swaps = append(s.swaps, i)
		dst = append(dst, s.perm[k])
	}
	// Undo the swaps in reverse so perm is identity again; this costs
	// O(n) instead of the O(m) a full re-initialization would.
	for k := n - 1; k >= 0; k-- {
		i := s.swaps[k]
		s.perm[k], s.perm[i] = s.perm[i], s.perm[k]
	}
	return dst
}
