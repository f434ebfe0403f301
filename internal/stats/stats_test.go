package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank on a sorted copy. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give identical streams")
		}
	}
}

// TestPermIntoIsPerm: PermInto writes Perm's permutation and leaves the
// generator where Perm does, whatever the buffer held before.
func TestPermIntoIsPerm(t *testing.T) {
	buf := make([]int, 0, 64)
	for seed := int64(0); seed < 8; seed++ {
		for _, n := range []int{0, 1, 2, 7, 64} {
			a, b := NewRNG(seed), NewRNG(seed)
			want := a.Perm(n)
			buf = buf[:n]
			for i := range buf {
				buf[i] = -1 - i
			}
			b.PermInto(buf)
			if !slices.Equal(buf, want) {
				t.Fatalf("seed %d n %d: PermInto %v, Perm %v", seed, n, buf, want)
			}
			if a.Int63() != b.Int63() {
				t.Fatalf("seed %d n %d: PermInto left the generator elsewhere than Perm", seed, n)
			}
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(1)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += g.Exponential(3.5)
	}
	got := sum / float64(n)
	if math.Abs(got-3.5) > 0.05 {
		t.Errorf("exponential mean %v, want ~3.5", got)
	}
}

func TestParetoMeanMatched(t *testing.T) {
	g := NewRNG(2)
	sum := 0.0
	n := 500000
	for i := 0; i < n; i++ {
		sum += g.ParetoMean(2.5, 10)
	}
	got := sum / float64(n)
	if math.Abs(got-10)/10 > 0.05 {
		t.Errorf("pareto mean %v, want ~10", got)
	}
}

func TestParetoScalePositive(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(1.5, 2); v < 2 {
			t.Fatalf("pareto sample %v below scale", v)
		}
	}
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRNG(5)
	n := 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.LogNormal(2, 0.5)
	}
	med := Percentile(xs, 50)
	want := math.Exp(2.0)
	if math.Abs(med-want)/want > 0.05 {
		t.Errorf("lognormal median %v, want ~%v", med, want)
	}
}

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(100, 0.8)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
		if i > 0 && z.Prob(i) > z.Prob(i-1) {
			t.Fatalf("zipf probs must be non-increasing at %d", i)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf probs sum to %v", sum)
	}
}

func TestZipfSampleFrequencies(t *testing.T) {
	z := NewZipf(10, 1.0)
	g := NewRNG(6)
	counts := make([]int, 10)
	n := 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	for i := 0; i < 10; i++ {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-z.Prob(i)) > 0.01 {
			t.Errorf("rank %d frequency %v, want %v", i, got, z.Prob(i))
		}
	}
}

func TestZipfAlphaZeroIsUniform(t *testing.T) {
	z := NewZipf(4, 0)
	for i := 0; i < 4; i++ {
		if math.Abs(z.Prob(i)-0.25) > 1e-12 {
			t.Errorf("alpha=0 rank %d prob %v, want 0.25", i, z.Prob(i))
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if math.Abs(s.Variance-2) > 1e-12 {
		t.Errorf("variance %v, want 2", s.Variance)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty summary should be zero: %+v", s)
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 1 + g.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.NormFloat64()
		}
		p50 := Percentile(xs, 50)
		p90 := Percentile(xs, 90)
		min := Percentile(xs, 0)
		max := Percentile(xs, 100)
		return min <= p50 && p50 <= p90 && p90 <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n := 1 + g.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = g.Float64() * 10
		}
		cdf := CDF(xs)
		prev := 0.0
		for _, pt := range cdf {
			if pt.F < prev || pt.F > 1+1e-12 {
				return false
			}
			prev = pt.F
		}
		return math.Abs(cdf[len(cdf)-1].F-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAt(t *testing.T) {
	cdf := CDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := CDFAt(cdf, c.x); got != c.want {
			t.Errorf("CDFAt(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(5)
	h.Add(0.5, 1) // underflow
	h.Add(5, 2)   // bin 0
	h.Add(50, 3)  // bin 1
	h.Add(1e9, 4) // overflow -> last bin
	if h.Underflow() != 1 {
		t.Errorf("underflow %v", h.Underflow())
	}
	if h.Weight(0) != 2 || h.Weight(1) != 3 || h.Weight(4) != 4 {
		t.Errorf("weights wrong: %v %v %v", h.Weight(0), h.Weight(1), h.Weight(4))
	}
	if h.Total() != 10 {
		t.Errorf("total %v", h.Total())
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-0.9) > 1e-12 { // 1/10 went to underflow
		t.Errorf("fractions sum %v, want 0.9", sum)
	}
}

func TestReservoirUniformity(t *testing.T) {
	r := NewReservoir(100, 7)
	n := 100000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != int64(n) {
		t.Fatalf("seen %d", r.Seen())
	}
	if len(r.Items()) != 100 {
		t.Fatalf("kept %d items", len(r.Items()))
	}
	// The sample mean should approximate the stream mean.
	mean := Mean(r.Items())
	want := float64(n-1) / 2
	if math.Abs(mean-want)/want > 0.25 {
		t.Errorf("reservoir mean %v, want ~%v", mean, want)
	}
}

// Weight returns the accumulated weight of bin i.
func (h *LogHistogram) Weight(i int) float64 { return h.weights[i] }

// Underflow returns the weight accumulated below the lowest bin edge.
func (h *LogHistogram) Underflow() float64 { return h.under }

// Seen returns how many values have been offered.
func (r *Reservoir) Seen() int64 { return r.seen }

// Items returns the current sample. The returned slice is owned by the
// reservoir; callers must not modify it.
func (r *Reservoir) Items() []float64 { return r.items }

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }
