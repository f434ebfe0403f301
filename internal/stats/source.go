package stats

import (
	"math"
	"math/rand"
)

// source is math/rand's generator (rand.NewSource, an additive lagged
// Fibonacci generator over 607 words) with a Seed that costs O(1)
// instead of 1 841 steps of a multiplicative congruential generator.
// It emits rand.NewSource's stream word for word.
//
// rand.NewSource's Seed fills word i of the register with
//
//	(x[3i+21]<<40) ^ (x[3i+22]<<20) ^ x[3i+23] ^ cooked[i],
//
// where x[k] = seed·48271^k mod (2³¹−1). With the powers of 48271 in a
// table, any word costs three multiply-mods, so Seed only records the
// seed and each word is computed when a draw first reads it. After a
// Seed, draw d (from 0) adds word 333−d (the feed) to word 606−d (the
// tap). The first 334 draws read every original word exactly once:
// the feeds 333…0, and the taps 606…334 of draws 0…272 (draws 273…333
// tap words that draws 0…60 already wrote). A count of draws since
// Seed is therefore all the bookkeeping, and draw 334 on is the plain
// generator step.
type source struct {
	tap, feed int
	vec       [rngLen]int64
	seed      uint64 // the normalized seed, in [1, 2³¹−2]
	drawn     int    // draws since Seed, counted up to seedDraws
}

const (
	rngLen    = 607
	rngTap    = 273
	seedDraws = rngLen - rngTap // draws that still read words Seed set
	lcgMod    = 1<<31 - 1       // the seeding generator's modulus
)

// lcgPow[k] is 48271^k mod (2³¹−1), for every k a word of the register
// reads.
var lcgPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % lcgMod
	}
	return p
}()

// cooked is math/rand's rngCooked table, the constants Seed XORs into
// the register. It is read back from math/rand itself: one turn of 607
// draws rewrites every word, so after it the register is the last 607
// outputs, and undoing the turn (feed −= tap, newest draw first)
// recovers the seeded register of a known seed.
var cooked = func() (c [rngLen]int64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	tap, feed := 0, seedDraws
	for d := 0; d < rngLen; d++ {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		c[feed] = int64(src.Uint64())
	}
	for d := 0; d < rngLen; d++ { // tap, feed are back where Seed put them
		c[feed] -= c[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range c {
		c[i] ^= seedWord(seed, i)
	}
	return c
}()

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2]. The modulus is
// prime, so the product is no multiple of it, and one fold of the high
// bits onto the low plus one subtraction reduce it.
func mulMod(a, b uint64) int64 {
	p := a * b
	p = p&lcgMod + p>>31
	if p >= lcgMod {
		p -= lcgMod
	}
	return int64(p)
}

// seedWord is word i of the register Seed(seed) fills, before cooked.
func seedWord(seed uint64, i int) int64 {
	k := 3*i + 21
	return mulMod(seed, lcgPow[k])<<40 ^ mulMod(seed, lcgPow[k+1])<<20 ^ mulMod(seed, lcgPow[k+2])
}

// word is word i of the register as Seed left it.
func (s *source) word(i int) int64 { return seedWord(s.seed, i) ^ cooked[i] }

// Seed resets the stream to rand.NewSource(seed)'s.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.drawn = uint64(seed), 0
}

// Int63 returns the next word of the stream without its top bit, as
// rand.NewSource's Int63 does.
func (s *source) Int63() int64 {
	if s.drawn < seedDraws {
		return s.firstDraws() & math.MaxInt64
	}
	return s.step() & math.MaxInt64
}

// step is the plain generator step: feed += tap, both one word back.
func (s *source) step() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// firstDraws is a draw that still reads words Seed set. It leaves tap
// and feed where step expects them.
func (s *source) firstDraws() int64 {
	s.feed, s.tap = seedDraws-1-s.drawn, rngLen-1-s.drawn
	if s.tap >= seedDraws {
		s.vec[s.tap] = s.word(s.tap)
	}
	x := s.word(s.feed) + s.vec[s.tap]
	s.vec[s.feed] = x
	s.drawn++
	return x
}
