package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

func sortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Summary holds the descriptive statistics reported by the paper's
// tables (e.g. Table 6's rank-order error statistics).
type Summary struct {
	Count    int
	Mean     float64
	Median   float64
	P90      float64
	P99      float64
	Min      float64
	Max      float64
	Variance float64
	StdDev   float64
}

// Summarize computes a Summary of xs in a single sort.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{
		Count:  len(s),
		Mean:   Mean(s),
		Median: sortedPercentile(s, 50),
		P90:    sortedPercentile(s, 90),
		P99:    sortedPercentile(s, 99),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
	sum.Variance = Variance(s)
	sum.StdDev = math.Sqrt(sum.Variance)
	return sum
}

// CDFPoint is one (x, F(x)) point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns the empirical CDF of xs evaluated at every distinct
// value, suitable for plotting figures such as the paper's Fig. 3.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var pts []CDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); i++ {
		if i+1 < len(s) && s[i+1] == s[i] { //lint:allow float-equal collapses exact duplicates in sorted samples; bit-exact by design
			continue
		}
		pts = append(pts, CDFPoint{X: s[i], F: float64(i+1) / n})
	}
	return pts
}

// CDFAt evaluates an empirical CDF (as returned by CDF) at x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	i := sort.Search(len(cdf), func(i int) bool { return cdf[i].X > x })
	if i == 0 {
		return 0
	}
	return cdf[i-1].F
}
