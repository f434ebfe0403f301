package cache

import "unsafe"

// Per-key state without Go maps: a Slab holds the records, a
// HandleIndex (index.go) resolves a key to the handle of its record. The
// engine keeps its entries this way, and so does core's record table.

const (
	slabShift = 9
	// SlabChunk is how many handles a slab adds at a time.
	SlabChunk = 1 << slabShift
	slabMask  = SlabChunk - 1
)

// SlabPos splits handle h into its chunk and its slot within the chunk,
// for arrays kept parallel to a slab's chunks.
func SlabPos(h uint32) (chunk, slot int) { return int(h >> slabShift), int(h & slabMask) }

// Slab is an arena of T addressed by uint32 handles; handle 0 is "none".
// A handle owns one T, or width consecutive Ts in a slab made by
// NewWideSlab. The slab grows one fixed chunk at a time: growth never
// copies (a doubling append holds the old and the new backing array at
// once, and both land in the process's peak RSS), and a *T stays valid
// for the slab's lifetime. Released slots are zeroed and reissued before
// the slab grows. The zero Slab is empty and ready to use.
type Slab[T any] struct {
	chunks [][]T
	top    uint32 // highest handle ever issued
	free   []uint32
	extra  int // Ts a handle owns beyond the first
}

// NewWideSlab returns an empty slab whose handles each own width
// consecutive Ts, read with Run.
func NewWideSlab[T any](width int) Slab[T] { return Slab[T]{extra: width - 1} }

// At returns the (first) T of handle h.
func (s *Slab[T]) At(h uint32) *T {
	return &s.chunks[h>>slabShift][int(h&slabMask)*(1+s.extra)]
}

// Run returns every T of handle h.
func (s *Slab[T]) Run(h uint32) []T {
	w := 1 + s.extra
	off := int(h&slabMask) * w
	return s.chunks[h>>slabShift][off : off+w : off+w]
}

// Alloc issues a handle to zeroed slots, and reports the bytes it added
// to the slab: a chunk's worth when it had to grow, else 0.
func (s *Slab[T]) Alloc() (h uint32, grown int64) {
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
		return h, 0
	}
	s.top++
	if int(s.top>>slabShift) == len(s.chunks) {
		n := SlabChunk * (1 + s.extra)
		s.chunks = append(s.chunks, make([]T, n))
		var zero T
		grown = int64(n) * int64(unsafe.Sizeof(zero))
	}
	return s.top, grown
}

// Release zeroes h's slots and queues h for reissue.
func (s *Slab[T]) Release(h uint32) {
	clear(s.Run(h))
	s.free = append(s.free, h)
}

// Top returns the highest handle ever issued: every live handle is in
// [1, Top].
func (s *Slab[T]) Top() uint32 { return s.top }
