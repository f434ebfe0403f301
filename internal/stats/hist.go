package stats

import (
	"fmt"
	"math"
)

// LogHistogram accumulates weighted counts into logarithmically spaced
// bins, as used by the paper's Fig. 17/18 analysis of requests and
// requested bytes over object-size and object-frequency ranges.
type LogHistogram struct {
	base    float64
	lo      float64
	weights []float64
	under   float64
}

// NewLogHistogram creates a histogram whose i-th bin covers
// [lo*base^i, lo*base^(i+1)). Values below lo are accumulated in an
// underflow bucket. It panics on non-positive lo or base <= 1.
func NewLogHistogram(lo, base float64, bins int) *LogHistogram {
	if lo <= 0 || base <= 1 || bins <= 0 {
		panic("stats: invalid LogHistogram parameters")
	}
	return &LogHistogram{base: base, lo: lo, weights: make([]float64, bins)}
}

// Add accumulates weight w at value v, extending into the last bin for
// overflow values.
func (h *LogHistogram) Add(v, w float64) {
	if v < h.lo {
		h.under += w
		return
	}
	i := int(math.Log(v/h.lo) / math.Log(h.base))
	if i >= len(h.weights) {
		i = len(h.weights) - 1
	}
	h.weights[i] += w
}

// Bins returns the number of bins (excluding underflow).
func (h *LogHistogram) Bins() int { return len(h.weights) }

// BinLo returns the lower edge of bin i.
func (h *LogHistogram) BinLo(i int) float64 {
	return h.lo * math.Pow(h.base, float64(i))
}

// Total returns the total accumulated weight including underflow.
func (h *LogHistogram) Total() float64 {
	t := h.under
	for _, w := range h.weights {
		t += w
	}
	return t
}

// Label returns a human-readable range label for bin i, e.g.
// "[1.0e+03, 1.0e+04)".
func (h *LogHistogram) Label(i int) string {
	return fmt.Sprintf("[%.1e, %.1e)", h.BinLo(i), h.BinLo(i+1))
}

// Fractions returns each bin's share of the total weight. Underflow is
// excluded from the returned slice but included in the denominator.
func (h *LogHistogram) Fractions() []float64 {
	t := h.Total()
	out := make([]float64, len(h.weights))
	if t == 0 { //lint:allow float-equal exact zero total guards the division below
		return out
	}
	for i, w := range h.weights {
		out[i] = w / t
	}
	return out
}
