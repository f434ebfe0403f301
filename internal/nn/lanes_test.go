package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

// checkLanes requires kernel(x) to be ref on every entry of x, bit for
// bit (NaN matches any NaN).
func checkLanes(t *testing.T, name string, kernel func(x, y []float64), ref func(float64) float64, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	kernel(x, got)
	for i, v := range x {
		want := ref(v)
		if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("%s(%v) (bits %#x) = %v, want %v", name, v, math.Float64bits(v), got[i], want)
		}
	}
}

// checkEdges runs checkLanes over every run of 0 to 9 consecutive edges:
// every tail length, and each edge in every lane.
func checkEdges(t *testing.T, name string, kernel func(x, y []float64), ref func(float64) float64, edges []float64) {
	t.Helper()
	for n := 0; n <= 9; n++ {
		for off := 0; off+n <= len(edges); off += n + 1 {
			checkLanes(t, name, kernel, ref, edges[off:off+n])
		}
	}
}

// checkDrawn runs checkLanes over 10⁷ arguments from draw, in chunks,
// with one of edges, if any, scattered into each chunk, so a group that
// falls back to the Go loop sits between groups the assembly runs.
func checkDrawn(t *testing.T, name string, kernel func(x, y []float64), ref func(float64) float64, edges []float64, g *stats.RNG, draw func() float64) {
	t.Helper()
	const chunk = 1 << 14
	x := make([]float64, chunk)
	for done := 0; done < 10_000_000; done += chunk {
		for i := range x {
			x[i] = draw()
		}
		if len(edges) > 0 {
			x[g.Intn(chunk)] = edges[g.Intn(len(edges))]
		}
		checkLanes(t, name, kernel, ref, x)
	}
}

// around returns v and its two neighbours, for each v and for −v.
func around(vs ...float64) []float64 {
	var out []float64
	for _, v := range vs {
		for _, s := range []float64{v, -v} {
			out = append(out, s, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
		}
	}
	return out
}

// specials are ±0, ±Inf, NaN and the denormals' ends.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074)}

// TestTanhMatchesMath pins the gate activations to math, bit for bit:
// tanhSlice to math.Tanh and sigmoidSlice to 1/(1+math.Exp(−x)). tanh is
// checked on the edges — the specials, its branch bound 0.625 and its
// saturation bound MAXLOG/2, each with its neighbours — then on 10⁷
// arguments of uniform exponent and either sign, then on 10⁷ in
// [−4, 4], where a GRU's candidate state lies. The sigmoid is checked
// on the exp edges negated, then on 10⁷ arguments in [−710, 750] and
// 10⁷ in [−12, 12], where the gates lie.
func TestTanhMatchesMath(t *testing.T) {
	const maxLog = 8.8029691931113054295988e+01 // math.tanh's MAXLOG
	edges := append(around(0.625, maxLog/2, 1, 0.5, 19.0, 22.0, 1e300), specials...)
	checkEdges(t, "tanh", tanhSlice, math.Tanh, edges)
	g := stats.NewRNG(4)
	sign := func() float64 { return float64(2*g.Intn(2) - 1) }
	checkDrawn(t, "tanh", tanhSlice, math.Tanh, edges, g, func() float64 {
		return sign() * math.Ldexp(1+g.Float64(), g.Intn(1090)-1080)
	})
	checkDrawn(t, "tanh", tanhSlice, math.Tanh, edges, g, func() float64 { return 8*g.Float64() - 4 })

	sigmoid := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	var sEdges []float64
	for _, v := range expEdges() {
		sEdges = append(sEdges, -v)
	}
	checkEdges(t, "sigmoid", sigmoidSlice, sigmoid, sEdges)
	checkDrawn(t, "sigmoid", sigmoidSlice, sigmoid, sEdges, g, func() float64 { return -710 + 1460*g.Float64() })
	checkDrawn(t, "sigmoid", sigmoidSlice, sigmoid, sEdges, g, func() float64 { return 24*g.Float64() - 12 })
}

// TestLog1pMatchesMath pins log1pSlice to math.Log1p, bit for bit: on
// the edges — the specials, −1 and its neighbours, and each of
// math.log1p's branch bounds with its neighbours: 2⁻⁵⁴, 2⁻²⁹, √2−1,
// √2/2−1 and 2⁵³, and the arguments where 1+x is a power of two — then
// on 10⁷ arguments of uniform exponent in (−1, 2⁶⁰), then on 10⁷ in
// [−1, 256), what the time features take.
func TestLog1pMatchesMath(t *testing.T) {
	edges := append(around(-log1pLo, 0x1p-54, 0x1p-29, math.Sqrt2-1, math.Sqrt2/2-1, log1pHi, 3, 0.5, 0.75, 7, 0x1p40-1),
		specials...)
	checkEdges(t, "log1p", log1pSlice, math.Log1p, edges)
	g := stats.NewRNG(5)
	checkDrawn(t, "log1p", log1pSlice, math.Log1p, edges, g, func() float64 {
		if g.Intn(2) == 0 {
			return -math.Ldexp(1+g.Float64(), g.Intn(1075)-1076) // (−1, 0)
		}
		return math.Ldexp(1+g.Float64(), g.Intn(1135)-1075)
	})
	checkDrawn(t, "log1p", log1pSlice, math.Log1p, edges, g, func() float64 { return 257*g.Float64() - 1 })
}
