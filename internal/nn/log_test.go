package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

// TestLogMatchesMath pins logSlice to math.Log, bit for bit: on the
// edges — ±0, ±Inf, NaN, negatives, denormals, the kernel's range ends
// and their neighbours, and f1 on either side of √2/2, where archLog
// halves its exponent — then on 10⁷ arguments of uniform exponent over
// the whole double range (the edges scattered among them), then on 10⁷
// in [10⁻³⁰⁰, 1] ∪ [e⁻⁷, e⁷], what the NLL takes logs of.
func TestLogMatchesMath(t *testing.T) {
	check := func(x []float64) {
		t.Helper()
		got := make([]float64, len(x))
		logSlice(x, got)
		for i, v := range x {
			want := math.Log(v)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Fatalf("log(%v) (bits %#x) = %v, math.Log %v", v, math.Float64bits(v), got[i], want)
			}
		}
	}
	hs := math.Sqrt2 / 2
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, -logLo, 1,
		logLo, math.Nextafter(logLo, 0), math.Nextafter(logLo, 1), logHi, math.Nextafter(logHi, 0),
		math.SmallestNonzeroFloat64, 0x1p-1030, 2, 0.5, math.E, 1e-300 + 1e-300,
		hs, math.Nextafter(hs, 0), math.Nextafter(hs, 1), 4 * hs, math.Nextafter(4*hs, 0), math.Nextafter(4*hs, 8)}
	for n := 0; n <= 9; n++ { // every tail length, and the edges in every lane
		for off := 0; off+n <= len(edges); off += n + 1 {
			check(edges[off : off+n])
		}
	}
	g := stats.NewRNG(3)
	const chunk = 1 << 14
	x := make([]float64, chunk)
	for done := 0; done < 10_000_000; done += chunk {
		for i := range x {
			x[i] = math.Ldexp(1+g.Float64(), g.Intn(2100)-1075)
		}
		x[g.Intn(chunk)] = edges[g.Intn(len(edges))]
		check(x)
	}
	for done := 0; done < 10_000_000; done += chunk {
		for i := range x {
			if i%2 == 0 {
				x[i] = math.Pow(10, -300*g.Float64())
			} else {
				x[i] = math.Exp(14*g.Float64() - 7)
			}
		}
		check(x)
	}
}
