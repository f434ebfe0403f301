package trace

import (
	"math"
	"sort"

	"raven/internal/stats"
)

// Characteristics summarizes a trace the way the paper's Table 1 does.
type Characteristics struct {
	Name          string
	TotalRequests int
	TotalBytes    int64
	UniqueObjects int
	UniqueBytes   int64
	Duration      int64
	MeanSize      float64
	MaxSize       int64
}

// Characterize computes a trace's Table-1-style summary.
func Characterize(t *Trace) Characteristics {
	c := Characteristics{
		Name:          t.Name,
		TotalRequests: t.Len(),
		TotalBytes:    t.TotalBytes(),
		UniqueObjects: t.UniqueObjects(),
		UniqueBytes:   t.UniqueBytes(),
		Duration:      t.Duration(),
	}
	for _, r := range t.Reqs {
		if r.Size > c.MaxSize {
			c.MaxSize = r.Size
		}
	}
	if c.TotalRequests > 0 {
		c.MeanSize = float64(c.TotalBytes) / float64(c.TotalRequests)
	}
	return c
}

// PopularityByRank returns per-object request counts sorted in
// decreasing order — the popularity-vs-rank curve of Fig 8b. A roughly
// straight line on log-log axes indicates a Zipf law.
func PopularityByRank(t *Trace) []int {
	counts := make(map[Key]int)
	for _, r := range t.Reqs {
		counts[r.Key]++
	}
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// ZipfSlope fits the log-log slope of the popularity-rank curve over
// the top half of ranks; a Zipf(alpha) workload yields roughly -alpha.
func ZipfSlope(t *Trace) float64 {
	pops := PopularityByRank(t)
	n := len(pops) / 2
	if n < 2 {
		return 0
	}
	// Least squares on (log rank, log count).
	var sx, sy, sxx, sxy float64
	m := 0
	for i := 0; i < n; i++ {
		if pops[i] <= 0 {
			break
		}
		x := logf(float64(i + 1))
		y := logf(float64(pops[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 2 {
		return 0
	}
	fm := float64(m)
	den := fm*sxx - sx*sx
	if den == 0 { //lint:allow float-equal exact zero denominator guards the division below
		return 0
	}
	return (fm*sxy - sx*sy) / den
}

// BinWeights holds a log-binned histogram series for Fig 17/18: the
// share of total requests or total requested bytes falling into each
// object-size or object-frequency bin.
type BinWeights struct {
	Labels    []string
	Fractions []float64
}

// bins is the number of decade bins of Fig. 17/18: [10^i, 10^(i+1))
// for i < 9, the last one open-ended.
const bins = 9

// RequestsBySize returns the share of requests per object-size bin
// (Fig 17, top).
func RequestsBySize(t *Trace) BinWeights {
	return sizeBinned(t, func(r Request) float64 { return 1 })
}

// BytesBySize returns the share of requested bytes per object-size bin
// (Fig 17, bottom).
func BytesBySize(t *Trace) BinWeights {
	return sizeBinned(t, func(r Request) float64 { return float64(r.Size) })
}

func sizeBinned(t *Trace, weight func(Request) float64) BinWeights {
	h := stats.NewLogHistogram(bins)
	for _, r := range t.Reqs {
		h.Add(float64(r.Size), weight(r))
	}
	return histToWeights(h)
}

// RequestsByFrequency returns the share of requests per
// object-frequency bin (Fig 18, top).
func RequestsByFrequency(t *Trace) BinWeights {
	return freqBinned(t, func(r Request) float64 { return 1 })
}

// BytesByFrequency returns the share of requested bytes per
// object-frequency bin (Fig 18, bottom).
func BytesByFrequency(t *Trace) BinWeights {
	return freqBinned(t, func(r Request) float64 { return float64(r.Size) })
}

func freqBinned(t *Trace, weight func(Request) float64) BinWeights {
	counts := make(map[Key]int)
	for _, r := range t.Reqs {
		counts[r.Key]++
	}
	h := stats.NewLogHistogram(bins)
	for _, r := range t.Reqs {
		h.Add(float64(counts[r.Key]), weight(r))
	}
	return histToWeights(h)
}

func histToWeights(h *stats.LogHistogram) BinWeights {
	bw := BinWeights{
		Labels:    make([]string, h.Bins()),
		Fractions: h.Fractions(),
	}
	for i := 0; i < h.Bins(); i++ {
		bw.Labels[i] = h.Label(i)
	}
	return bw
}

func logf(x float64) float64 { return math.Log(x) }
