package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

// expEdges are the arguments where an exp kernel can go wrong: ±0, ±Inf,
// NaN, the kernel's range ends, archExp's overflow bound with its
// neighbours and the start of its e = 1024 step (which math.Exp rounds
// to +Inf), and the −708…−745 band where the ldexp step goes denormal
// and then underflows.
func expEdges() []float64 {
	const overflow = 7.09782712893384e+02
	v := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1,
		expLo, expHi, math.Nextafter(expLo, -1000), math.Nextafter(expHi, 1000),
		overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 1000),
		709.436, 709.437, 709.5, -1e300, 1e300, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}
	for x := -708.0; x >= -746; x -= 0.125 {
		v = append(v, x, math.Nextafter(x, 0))
	}
	return v
}

// TestExpMatchesMath pins expSlice to math.Exp, bit for bit: on the
// edges, then on 10⁷ uniform arguments in [−750, 710] — the edges
// scattered among them, so a group that falls back to math.Exp sits
// between groups the assembly runs — then on 10⁷ in the kernel's own
// range, where every group is the assembly's.
func TestExpMatchesMath(t *testing.T) {
	check := func(x []float64) {
		t.Helper()
		got := make([]float64, len(x))
		expSlice(x, got)
		for i, v := range x {
			want := math.Exp(v)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Fatalf("exp(%v) (bits %#x) = %v, math.Exp %v", v, math.Float64bits(v), got[i], want)
			}
		}
	}
	edges := expEdges()
	for n := 0; n <= 9; n++ { // every tail length, and the edges in every lane
		for off := 0; off+n <= len(edges); off += n + 1 {
			check(edges[off : off+n])
		}
	}
	g := stats.NewRNG(1)
	const chunk = 1 << 14
	x := make([]float64, chunk)
	for _, r := range []struct{ lo, hi float64 }{{-750, 710}, {expLo, expHi}} {
		for done := 0; done < 10_000_000; done += chunk {
			for i := range x {
				x[i] = r.lo + (r.hi-r.lo)*g.Float64()
			}
			if r.lo < expLo {
				x[g.Intn(chunk)] = edges[g.Intn(len(edges))]
			}
			check(x)
		}
	}
}
