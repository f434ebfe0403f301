package stats

import (
	"fmt"
	"math"
)

// LogHistogram accumulates weighted counts into decade bins, as used by
// the paper's Fig. 17/18 analysis of requests and requested bytes over
// object-size and object-frequency ranges.
type LogHistogram struct {
	weights []float64
	under   float64
}

// histBase is the ratio of a bin's upper edge to its lower edge.
const histBase = 10.0

// NewLogHistogram creates a histogram whose i-th bin covers
// [10^i, 10^(i+1)). Values below 1 are accumulated in an underflow
// bucket. It panics on bins <= 0.
func NewLogHistogram(bins int) *LogHistogram {
	if bins <= 0 {
		panic("stats: invalid LogHistogram parameters")
	}
	return &LogHistogram{weights: make([]float64, bins)}
}

// Add accumulates weight w at value v, extending into the last bin for
// overflow values.
func (h *LogHistogram) Add(v, w float64) {
	if v < 1 {
		h.under += w
		return
	}
	i := int(math.Log(v) / math.Log(histBase))
	if i >= len(h.weights) {
		i = len(h.weights) - 1
	}
	h.weights[i] += w
}

// Bins returns the number of bins (excluding underflow).
func (h *LogHistogram) Bins() int { return len(h.weights) }

// BinLo returns the lower edge of bin i.
func (h *LogHistogram) BinLo(i int) float64 {
	return math.Pow(histBase, float64(i))
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
