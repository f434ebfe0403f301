package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest value with at least p% of the samples at
// or below it. An empty sample reads 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns v sorted ascending, leaving v alone.
func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// correctOmission returns the round-trip times callers arriving every
// interval would have seen. The closed loop sends its next request only
// after the previous reply, so a stall of length L hides the callers
// that would have arrived during it; each RTT L > interval therefore
// also contributes L-interval, L-2*interval, ... (the HdrHistogram
// correction). The result is sorted.
func correctOmission(rtts []int64, interval int64) []int64 {
	out := make([]int64, 0, len(rtts))
	for _, l := range rtts {
		out = append(out, l)
		if interval <= 0 {
			continue
		}
		for m := l - interval; m > 0; m -= interval {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of v (the mean of the middle two for an
// even count); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: a share of nothing reads
// as 0, never NaN, so every metric stays a JSON number.
func ratio(num, den float64) float64 {
	if den == 0 { //lint:allow float-equal exact zero denominator means no events; the share is defined as 0
		return 0
	}
	return num / den
}
