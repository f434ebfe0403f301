// Package sketch provides the probabilistic counting substrate of
// cache.SketchAdmitter, after TinyLFU (Einziger et al., cited in the
// paper's related work §2): a conservative-update count-min sketch for
// frequency estimation and a Bloom-filter "doorkeeper" that absorbs
// one-hit wonders before they reach the sketch.
package sketch

import (
	"math"
)

// mix64 is a splitmix64-style finalizer used to derive row hashes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CountMin is a count-min sketch with conservative update and
// periodic halving ("aging") so stale popularity decays.
type CountMin struct {
	rows   int
	width  uint64
	counts [][]uint8
	adds   uint64
	// ResetAt halves all counters after this many increments (0
	// disables aging). Saturated increments (all of the key's counters
	// at MaxUint8) cannot raise a counter but still count toward the
	// period: a saturated sketch is exactly the one that must keep
	// aging, or stale popularity would be frozen in forever.
	ResetAt uint64
	// OnAge, when non-nil, runs after every periodic halving — the
	// TinyLFU-style hook that lets a paired doorkeeper reset in
	// lockstep, so its "seen once" bits decay with the counters they
	// top up.
	OnAge func()
}

// NewCountMin creates a sketch with the given depth (rows) and width
// (counters per row, rounded up to a power of two).
func NewCountMin(rows, width int, resetAt uint64) *CountMin {
	if rows <= 0 || width <= 0 {
		panic("sketch: rows and width must be positive")
	}
	w := uint64(1)
	for w < uint64(width) {
		w <<= 1
	}
	cm := &CountMin{rows: rows, width: w, ResetAt: resetAt}
	cm.counts = make([][]uint8, rows)
	for i := range cm.counts {
		cm.counts[i] = make([]uint8, w)
	}
	return cm
}

func (cm *CountMin) idx(row int, key uint64) uint64 {
	return mix64(key+uint64(row)*0x9e3779b97f4a7c15) & (cm.width - 1)
}

// Add increments key's counters (conservative update: only the
// minimal counters grow) and applies aging when due. Saturated keys
// skip the increment but still advance the aging clock — the old
// early-return here silently disabled aging exactly when the sketch
// filled up, freezing stale popularity for the rest of a long replay.
func (cm *CountMin) Add(key uint64) {
	min := uint8(math.MaxUint8)
	for r := 0; r < cm.rows; r++ {
		if c := cm.counts[r][cm.idx(r, key)]; c < min {
			min = c
		}
	}
	if min < math.MaxUint8 {
		for r := 0; r < cm.rows; r++ {
			i := cm.idx(r, key)
			if cm.counts[r][i] == min {
				cm.counts[r][i]++
			}
		}
	}
	cm.adds++
	if cm.ResetAt > 0 && cm.adds >= cm.ResetAt {
		cm.Halve()
	}
}

// Estimate returns key's approximate frequency (an overestimate).
func (cm *CountMin) Estimate(key uint64) uint32 {
	min := uint8(math.MaxUint8)
	for r := 0; r < cm.rows; r++ {
		if c := cm.counts[r][cm.idx(r, key)]; c < min {
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
	for r := range cm.counts {
		row := cm.counts[r]
		for i := range row {
			row[i] >>= 1
		}
	}
	cm.adds = 0
	if cm.OnAge != nil {
		cm.OnAge()
	}
}

// Adds returns how many increments the current aging period has
// absorbed.
func (cm *CountMin) Adds() uint64 { return cm.adds }

// Bloom is a simple blocked Bloom filter used as TinyLFU's doorkeeper.
type Bloom struct {
	bits   []uint64
	mask   uint64
	hashN  int
	set    int
	cap    int
	resets uint64
}

// NewBloom sizes a filter for roughly n entries at ~1% false positives.
func NewBloom(n int) *Bloom {
	if n < 64 {
		n = 64
	}
	bits := uint64(1)
	for bits < uint64(n)*10 {
		bits <<= 1
	}
	return &Bloom{
		bits:  make([]uint64, bits/64),
		mask:  bits - 1,
		hashN: 7,
		cap:   n,
	}
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
		bit := h1 & b.mask
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
		bit := h1 & b.mask
		h1 += h2
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Reset clears the filter.
func (b *Bloom) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.set = 0
	b.resets++
}

// Resets counts the filter's resets, its own and its callers'. A key
// AddIfMissing took is Contained until the count moves: Reset is the
// only way a bit is cleared.
func (b *Bloom) Resets() uint64 { return b.resets }
