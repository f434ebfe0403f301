package core

import (
	"sort"

	"raven/internal/cache"
	"raven/internal/nn"
	"raven/internal/stats"
)

// window collects training data over one training window (§4.1):
// uniformly sampled objects (never biased towards popular ones) whose
// arrival times are recorded until the window ends. The sample stops
// admitting new objects once its unique bytes exceed the budget
// (the paper caps it at 5× the cache size) or the object cap is hit.
//
// Whether the window took a key, and where it keeps it, is a winMark
// the caller stores with the key (Raven keeps it in the key's record),
// so recording a request needs no lookup.
type window struct {
	start       int64
	budgetBytes int64
	maxObjects  int
	maxSeq      int
	rng         *stats.RNG

	gen          uint32 // current window; never 0, the zero winMark's gen
	sampledBytes int64
	sampled      []winSample
	// sampleProb adapts downward as the budget fills so the sample
	// stays uniform-ish across the window rather than front-loaded.
	sampleProb float64
}

// winMark is one key's standing in a window. The zero value, and a mark
// made in an earlier window, mean the window has not seen the key.
type winMark struct {
	gen  uint32
	slot int32 // index into window.sampled; -1 = the window passed the key over
}

// winSample is one sampled object's record for the window.
type winSample struct {
	key  cache.Key
	last int64
	size int64
	taus []float64
}

func newWindow(budgetBytes int64, maxObjects, maxSeq int, rng *stats.RNG) *window {
	w := &window{
		budgetBytes: budgetBytes,
		maxObjects:  maxObjects,
		maxSeq:      maxSeq,
		rng:         rng,
	}
	w.reset(0)
	return w
}

func (w *window) reset(start int64) {
	w.start = start
	w.gen++
	w.sampledBytes = 0
	clear(w.sampled) // release the finished window's sequences
	w.sampled = w.sampled[:0]
	w.sampleProb = 1
}

// record observes one request; m is the requested key's mark.
func (w *window) record(req cache.Request, m *winMark) {
	if m.gen == w.gen {
		if m.slot < 0 {
			return
		}
		s := &w.sampled[m.slot]
		tau := float64(req.Time - s.last)
		if tau < 1 {
			tau = 1
		}
		if w.maxSeq > 0 && len(s.taus) >= 2*w.maxSeq {
			// Keep the most recent interarrivals only.
			copy(s.taus, s.taus[1:])
			s.taus[len(s.taus)-1] = tau
		} else {
			s.taus = append(s.taus, tau)
		}
		s.last = req.Time
		return
	}
	m.gen = w.gen
	full := (w.budgetBytes > 0 && w.sampledBytes >= w.budgetBytes) ||
		(w.maxObjects > 0 && len(w.sampled) >= w.maxObjects)
	if full || w.rng.Float64() >= w.sampleProb {
		m.slot = -1
		return
	}
	m.slot = int32(len(w.sampled))
	w.sampled = append(w.sampled, winSample{key: req.Key, last: req.Time, size: req.Size})
	w.sampledBytes += req.Size
	// Tighten the sampling probability as capacity fills.
	if w.budgetBytes > 0 {
		frac := float64(w.sampledBytes) / float64(w.budgetBytes)
		if frac > 0.5 {
			w.sampleProb = 1 - (frac-0.5)*1.6 // → 0.2 at full budget
			if w.sampleProb < 0.05 {
				w.sampleProb = 0.05
			}
		}
	}
}

// sequences converts the window into training sequences, attaching
// each object's survival interval up to windowEnd. It returns the
// sequences and the total number of loss terms. Objects are visited in
// key order (a key the history store dropped and saw again mid-window
// is sampled afresh, so ties break by sampling order) to keep training
// independent of arrival order within the window.
func (w *window) sequences(windowEnd int64) ([]nn.Sequence, int) {
	order := make([]int, len(w.sampled))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if ka, kb := w.sampled[a].key, w.sampled[b].key; ka != kb {
			return ka < kb
		}
		return a < b
	})
	out := make([]nn.Sequence, 0, len(w.sampled))
	terms := 0
	for _, i := range order {
		s := &w.sampled[i]
		seq := nn.Sequence{
			Taus:     s.taus,
			Size:     float64(s.size),
			Survival: float64(windowEnd - s.last),
		}
		if len(seq.Taus) == 0 && seq.Survival <= 0 {
			continue
		}
		terms += len(seq.Taus)
		if seq.Survival > 0 {
			terms++
		}
		out = append(out, seq)
	}
	return out, terms
}
