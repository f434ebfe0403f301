package nn

import (
	"math"
	"testing"

	"raven/internal/stats"
)

// expRef is math's archExp (exp_amd64.s) in Go, step for step: fused
// selects its FMA form, each fused step a math.FMA. Every product and
// sum of the plain form is rounded on its own by an explicit
// conversion, which the compiler may not fuse away.
func expRef(x float64, fused bool) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	taylor := [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) >= 0x7FF0000000000000: // ±Inf or NaN
		if x == math.Inf(-1) {
			return 0
		}
		return x
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even; out of int32 range, 0x80000000.
	r := math.RoundToEven(x * log2e)
	e := int32(math.MinInt32)
	if r >= math.MinInt32 && r <= math.MaxInt32 {
		e = int32(r)
	}
	fe := float64(e)
	if fused {
		x = math.FMA(-fe, ln2U, x)
		x = math.FMA(-fe, ln2L, x)
	} else {
		x -= float64(fe * ln2U)
		x -= float64(fe * ln2L)
	}
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range taylor {
		if fused {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x *= x + 2
		x++
	}
	// ldexp: 32-bit exponent arithmetic, as the assembly's ADDL.
	b := e + 0x3FF
	switch {
	case b <= 0:
		if b < -52 {
			return 0
		}
		x *= math.Float64frombits(uint64(uint32(b+0x3FE)) << 52)
		b = 1
	case b >= 0x7FF:
		return math.Inf(1)
	}
	return x * math.Float64frombits(uint64(uint32(b))<<52)
}

// tanhRef is math.tanh (tanh.go) with its exp taken from expRef's
// given form; its other branches have no exp and are math.Tanh's.
func tanhRef(x float64, fused bool) float64 {
	const maxLog = 8.8029691931113054295988e+01
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		return math.Copysign(1, x)
	case z >= 0.625:
		s := expRef(2*z, fused)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	}
	return math.Tanh(x)
}

// TestExpKernelMatchesReference checks expRef's two forms against what
// they model and the kernels that run its steps — exp, the sigmoid and
// tanh — against both. The host's form must be math.Exp, bit for bit
// (and tanhRef's math.Tanh); then each kernel, with its FMA switch
// forced each way (the fused way only on a CPU with FMA), must be that
// form of the reference on every argument it takes, so the plain form
// the kernels run on CPUs without FMA is tested on one with it.
func TestExpKernelMatchesReference(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this CPU: expSlice is math.Exp")
	}
	g := stats.NewRNG(2)
	const n = 1 << 20
	wide, inRange := make([]float64, n), make([]float64, n)
	for i := range wide {
		wide[i] = -750 + 1460*g.Float64()
		inRange[i] = expLo + (expHi-expLo)*g.Float64()
	}
	for _, v := range append(expEdges(), wide...) {
		want := math.Exp(v)
		if got := expRef(v, useFMA); math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("expRef(%v, fused=%t) = %v, math.Exp %v", v, useFMA, got, want)
		}
	}
	// tanh's arguments: its rational, exp and saturated branches.
	tanhArgs := make([]float64, n)
	for i := range tanhArgs {
		tanhArgs[i] = -50 + 100*g.Float64()
		if got, want := tanhRef(tanhArgs[i], useFMA), math.Tanh(tanhArgs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tanhRef(%v, fused=%t) = %v, math.Tanh %v", tanhArgs[i], useFMA, got, want)
		}
	}
	negated := make([]float64, n)
	for i, v := range inRange {
		negated[i] = -v
	}
	forms := []bool{false}
	if hasFMA() {
		forms = append(forms, true)
	}
	differ := 0
	got := make([]float64, n)
	for _, fused := range forms {
		if done := expAVX(inRange, got, fused); done != n {
			t.Fatalf("fused=%t: the kernel stopped at %d of %d in-range arguments", fused, done, n)
		}
		for i, v := range inRange {
			if want := expRef(v, fused); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("fused=%t: kernel exp(%v) = %v, expRef %v", fused, v, got[i], want)
			}
			if expRef(v, !fused) != got[i] {
				differ++
			}
		}
		if done := sigmoidAVX(negated, got, fused); done != n {
			t.Fatalf("fused=%t: the sigmoid kernel stopped at %d of %d in-range arguments", fused, done, n)
		}
		for i, v := range inRange {
			if want := 1 / (1 + expRef(v, fused)); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("fused=%t: kernel sigmoid(%v) = %v, reference %v", fused, -v, got[i], want)
			}
		}
		tanhAVX(tanhArgs, got, fused)
		for i, v := range tanhArgs {
			if want := tanhRef(v, fused); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("fused=%t: kernel tanh(%v) = %v, tanhRef %v", fused, v, got[i], want)
			}
		}
	}
	if len(forms) == 2 && differ == 0 {
		t.Error("the two forms agree on every argument: the test cannot tell them apart")
	}
	t.Logf("the two forms differ on %d of %d arguments", differ/2, n)
}
