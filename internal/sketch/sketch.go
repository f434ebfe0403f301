// Package sketch provides the probabilistic counting substrate of the
// admission front's frequency stage (cache.Front), after TinyLFU
// (Einziger et al., cited in the paper's related work §2): a
// conservative-update count-min sketch for
// frequency estimation and a Bloom-filter "doorkeeper" that absorbs
// one-hit wonders before they reach the sketch.
//
// Both tables take exactly the size they are asked for: a hash is
// mapped onto [0, n) by multiply-shift range reduction (reduce), not by
// a power-of-two mask, so a table sized for n entries never holds up to
// twice that.
package sketch

import "math/bits"

// mix64 is a splitmix64-style finalizer used to derive row hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// reduce maps a uniform 64-bit hash uniformly onto [0, n): the high
// word of h·n (Lemire's range reduction).
func reduce(h, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}

// maxCount is a counter's ceiling. Counters are four bits wide,
// TinyLFU's width: the admission threshold is 2, so counting higher
// would only slow the decay of popularity that has gone stale.
const maxCount = 15

// CountMin is a count-min sketch with conservative update and
// periodic halving ("aging") so stale popularity decays. Its counters
// are four bits, sixteen to a word.
type CountMin struct {
	rows   int
	width  uint64   // counters per row
	stride int      // words per row
	counts []uint64 // rows × stride words
	adds   uint64
	// ResetAt halves all counters after this many increments (0
	// disables aging). Saturated increments (all of the key's counters
	// at maxCount) cannot raise a counter but still count toward the
	// period: a saturated sketch is exactly the one that must keep
	// aging, or stale popularity would be frozen in forever.
	ResetAt uint64
	// OnAge, when non-nil, runs after every periodic halving — the
	// TinyLFU-style hook that lets a paired doorkeeper reset with the
	// sketch, so its "seen once" bits decay with the counters they top
	// up.
	OnAge func()
}

// NewCountMin creates a sketch with the given depth (rows) and width
// (counters per row).
func NewCountMin(rows, width int, resetAt uint64) *CountMin {
	if rows <= 0 || width <= 0 {
		panic("sketch: rows and width must be positive")
	}
	stride := (width + 15) / 16
	return &CountMin{
		rows:    rows,
		width:   uint64(width),
		stride:  stride,
		counts:  make([]uint64, rows*stride),
		ResetAt: resetAt,
	}
}

// slot locates key's counter in row: its word and the bit offset of its
// four bits there.
func (cm *CountMin) slot(row int, key uint64) (word int, shift uint) {
	c := reduce(mix64(key+uint64(row)*0x9e3779b97f4a7c15), cm.width)
	return row*cm.stride + int(c/16), uint(c%16) * 4
}

// Add increments key's counters (conservative update: only the
// minimal counters grow) and applies aging when due. Saturated keys
// skip the increment but still advance the aging clock — the old
// early-return here silently disabled aging exactly when the sketch
// filled up, freezing stale popularity for the rest of a long replay.
func (cm *CountMin) Add(key uint64) {
	if min := uint64(cm.Estimate(key)); min < maxCount {
		for r := 0; r < cm.rows; r++ {
			w, s := cm.slot(r, key)
			if cm.counts[w]>>s&maxCount == min {
				cm.counts[w] += 1 << s
			}
		}
	}
	cm.adds++
	if cm.ResetAt > 0 && cm.adds >= cm.ResetAt {
		cm.Halve()
	}
}

// Estimate returns key's approximate frequency (an overestimate, capped
// at maxCount).
func (cm *CountMin) Estimate(key uint64) uint32 {
	min := uint64(maxCount)
	for r := 0; r < cm.rows; r++ {
		w, s := cm.slot(r, key)
		if c := cm.counts[w] >> s & maxCount; c < min {
			min = c
		}
	}
	return uint32(min)
}

// Halve ages the sketch: every counter is halved, the aging clock
// resets, and OnAge (if set) runs. Add calls it automatically every
// ResetAt increments; callers with their own deterministic schedule
// (replay epochs, training windows) may invoke it directly.
func (cm *CountMin) Halve() {
	for i, w := range cm.counts {
		// All sixteen counters at once: the mask drops the bit each one
		// would take from its upper neighbour.
		cm.counts[i] = w >> 1 & 0x7777777777777777
	}
	cm.adds = 0
	if cm.OnAge != nil {
		cm.OnAge()
	}
}

// Bytes returns the size of the sketch's counter table.
func (cm *CountMin) Bytes() int { return 8 * len(cm.counts) }

// bloomBitsPerEntry sizes the doorkeeper: ten bits per entry under its
// seven hashes keep false positives near 1% at capacity.
const bloomBitsPerEntry = 10

// Bloom is a simple Bloom filter used as TinyLFU's doorkeeper.
type Bloom struct {
	bits   []uint64
	nbits  uint64
	hashN  int
	set    int
	cap    int
	resets uint64
}

// NewBloom sizes a filter for roughly n entries at ~1% false positives.
func NewBloom(n int) *Bloom {
	b := &Bloom{hashN: 7}
	b.size(n)
	return b
}

// size replaces the bit array with an empty one for n entries (at
// least 64).
func (b *Bloom) size(n int) {
	n = max(n, 64)
	words := (n*bloomBitsPerEntry + 63) / 64
	b.bits = make([]uint64, words)
	b.nbits = uint64(64 * words)
	b.cap = n
	b.set = 0
}

// hashes returns the two independent 64-bit hashes of key that
// Kirsch–Mitzenmacher double hashing combines into the i-th bit
// position, h1 + i*h2.
func hashes(key uint64) (h1, h2 uint64) {
	return mix64(key), mix64(key^0x9e3779b97f4a7c15) | 1
}

// AddIfMissing inserts key and reports whether it was already present
// (probabilistically). The filter clears itself once it has absorbed
// its design capacity, implementing the doorkeeper's periodic reset.
func (b *Bloom) AddIfMissing(key uint64) bool {
	present := true
	h1, h2 := hashes(key)
	for i := 0; i < b.hashN; i++ {
		bit := reduce(h1, b.nbits)
		h1 += h2
		w, off := bit/64, bit%64
		if b.bits[w]&(1<<off) == 0 {
			present = false
			b.bits[w] |= 1 << off
		}
	}
	if !present {
		b.set++
		if b.set >= b.cap {
			b.Reset()
		}
	}
	return present
}

// Contains reports (probabilistic) membership.
func (b *Bloom) Contains(key uint64) bool {
	h1, h2 := hashes(key)
	for i := 0; i < b.hashN; i++ {
		bit := reduce(h1, b.nbits)
		h1 += h2
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	clear(b.bits)
	b.set = 0
	b.resets++
}

// Resize re-sizes the filter for n entries. The resized filter is
// empty, so Resize counts as a reset.
func (b *Bloom) Resize(n int) {
	b.size(n)
	b.resets++
}

// Resets counts the filter's resets, its own and its callers', resizes
// included. A key AddIfMissing took is Contained until the count moves:
// Reset and Resize are the only ways a bit is cleared.
func (b *Bloom) Resets() uint64 { return b.resets }

// Bytes returns the size of the filter's bit array.
func (b *Bloom) Bytes() int { return 8 * len(b.bits) }
