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
	hs := math.Sqrt2 / 2
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1, -logLo, 1,
		logLo, math.Nextafter(logLo, 0), math.Nextafter(logLo, 1), logHi, math.Nextafter(logHi, 0),
		math.SmallestNonzeroFloat64, 0x1p-1030, 2, 0.5, math.E, 1e-300 + 1e-300,
		hs, math.Nextafter(hs, 0), math.Nextafter(hs, 1), 4 * hs, math.Nextafter(4*hs, 0), math.Nextafter(4*hs, 8)}
	checkEdges(t, "log", logSlice, math.Log, edges)
	g := stats.NewRNG(3)
	checkDrawn(t, "log", logSlice, math.Log, edges, g, func() float64 {
		return math.Ldexp(1+g.Float64(), g.Intn(2100)-1075)
	})
	odd := false
	checkDrawn(t, "log", logSlice, math.Log, nil, g, func() float64 {
		if odd = !odd; odd {
			return math.Pow(10, -300*g.Float64())
		}
		return math.Exp(14*g.Float64() - 7)
	})
}
