package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSourceMatchesMathRand checks that an RNG's stream is math/rand's,
// bit for bit, through every method: the reference is the same wrapper
// over rand.NewSource. Each seed draws well past the 334 draws that
// read Seed's words lazily and past a full 607-word turn, and reseeds
// both mid-stream — once inside the lazy draws and once far past them.
func TestSourceMatchesMathRand(t *testing.T) {
	f := math.Float64bits
	ops := []struct {
		name string
		draw func(g *RNG) []uint64
	}{
		{"Float64", func(g *RNG) []uint64 { return []uint64{f(g.Float64())} }},
		{"Int63", func(g *RNG) []uint64 { return []uint64{uint64(g.Int63())} }},
		{"Intn", func(g *RNG) []uint64 { return []uint64{uint64(g.Intn(1000))} }},
		{"Intn-large", func(g *RNG) []uint64 { return []uint64{uint64(g.Intn(1 << 40))} }},
		{"Int63n", func(g *RNG) []uint64 { return []uint64{uint64(g.Int63n(12345))} }},
		{"NormFloat64", func(g *RNG) []uint64 { return []uint64{f(g.NormFloat64())} }},
		{"Uniform", func(g *RNG) []uint64 { return []uint64{f(g.Uniform(-3, 7))} }},
		{"Exponential", func(g *RNG) []uint64 { return []uint64{f(g.Exponential(40))} }},
		{"Pareto", func(g *RNG) []uint64 { return []uint64{f(g.Pareto(1.5, 2))} }},
		{"ParetoMean", func(g *RNG) []uint64 { return []uint64{f(g.ParetoMean(0.8, 10))} }},
		{"LogNormal", func(g *RNG) []uint64 { return []uint64{f(g.LogNormal(1, 2))} }},
		{"Perm", func(g *RNG) []uint64 {
			var out []uint64
			for _, v := range g.Perm(9) {
				out = append(out, uint64(v))
			}
			return out
		}},
		{"Shuffle", func(g *RNG) []uint64 {
			xs := []uint64{0, 1, 2, 3, 4, 5, 6}
			g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			return xs
		}},
	}
	const rounds = 3 * rngLen
	for _, seed := range []int64{0, -1, 1, 1<<31 - 1, 1<<31 - 2, 1 << 40, 89482311} {
		got, want := NewRNG(seed), &RNG{r: rand.New(rand.NewSource(seed))}
		for i := 0; i < rounds; i++ {
			switch i {
			case 100, 2 * rngLen:
				reseed := want.Int63()
				if g := got.Int63(); g != reseed {
					t.Fatalf("seed %d, round %d: Int63 = %d, want %d", seed, i, g, reseed)
				}
				got.Reseed(reseed)
				want.Reseed(reseed)
			}
			op := ops[i%len(ops)]
			g, w := op.draw(got), op.draw(want)
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d, round %d: %s = %#x, want %#x", seed, i, op.name, g, w)
			}
		}
	}
}

// BenchmarkReseed times a reseed followed by a handful of draws, the
// pattern of per-sequence and per-candidate streams.
func BenchmarkReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *RNG
	}{
		{"stats", NewRNG(1)},
		{"math-rand", &RNG{r: rand.New(rand.NewSource(1))}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.g.Reseed(int64(i))
				for j := 0; j < 16; j++ {
					c.g.Float64()
				}
			}
		})
	}
}
