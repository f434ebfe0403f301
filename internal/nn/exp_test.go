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
	edges := expEdges()
	checkEdges(t, "exp", expSlice, math.Exp, edges)
	g := stats.NewRNG(1)
	checkDrawn(t, "exp", expSlice, math.Exp, edges, g, func() float64 { return -750 + 1460*g.Float64() })
	checkDrawn(t, "exp", expSlice, math.Exp, nil, g, func() float64 { return expLo + (expHi-expLo)*g.Float64() })
}
